type key = Value.t array

(* Key comparison and equality are top-level loops over the columns,
   so a probe allocates no closure, and both take an Int/Int fast path
   before falling back to [Value.compare]. *)
let rec compare_from a b i la lb =
  if i >= la then if i >= lb then 0 else -1
  else if i >= lb then 1
  else
    let c =
      match (Array.unsafe_get a i, Array.unsafe_get b i) with
      | Value.Int x, Value.Int y -> Int.compare x y
      | x, y -> Value.compare x y
    in
    if c <> 0 then c else compare_from a b (i + 1) la lb

let rec equal_from a b i n =
  i >= n
  || (match (Array.unsafe_get a i, Array.unsafe_get b i) with
     | Value.Int x, Value.Int y -> x = y
     | x, y -> Value.compare x y = 0)
     && equal_from a b (i + 1) n

module Key_order = struct
  type t = key

  let compare a b = compare_from a b 0 (Array.length a) (Array.length b)
end

(* Hashing and equality specialized to keys: [hash] reads each
   constructor directly where the polymorphic hash would traverse the
   boxed representation on every probe, and [equal] holds exactly when
   [Key_order.compare] returns 0, so it keeps the same int/float
   coercions the ordered directory uses. *)
module Key_hashed = struct
  type t = key

  let equal a b =
    let n = Array.length a in
    n = Array.length b && equal_from a b 0 n

  (* Columns combine under a large odd multiplier (the 64-bit FNV
     prime). Under a base-31 sum, composite keys of small ints collide
     wholesale: TPC-C's [(d, o)] and [(d + 1, o - 31)] hash alike, and
     an order_line-shaped grid of 1.8M keys gets 5% distinct hashes. *)
  let column_mix = 0x100000001B3

  let hash (k : key) =
    let h = ref (Array.length k) in
    for i = 0 to Array.length k - 1 do
      (* Ints hash as themselves: the multiply above spreads them, and
         this skips a generic-hash call per element per probe. An
         integral float equals the int of the same value under
         [equal], so it must hash as that int too. *)
      let hv =
        match Array.unsafe_get k i with
        | Value.Int x -> x
        | Value.Float x when Float.is_integer x -> int_of_float x
        | Value.Text s -> Hashtbl.hash s
        | v -> Value.hash v
      in
      h := (!h * column_mix) + hv
    done;
    !h land max_int
end

(* Rendered keys must agree with [Key_hashed.equal]: [Int x] equals the
   integral [Float x], so that float renders as the int, and no other
   float equals an int, so the rest render exactly. [%h] alone would
   split the NaNs by sign, which [equal] does not. *)
let render_value = function
  | Value.Int x -> string_of_int x
  | Value.Float x when Float.is_integer x && x >= -0x1p62 && x < 0x1p62 ->
    string_of_int (int_of_float x)
  | Value.Float x when Float.is_nan x -> "nan"
  | Value.Float x -> Printf.sprintf "%h" x
  | (Value.Text _ | Value.Null | Value.Bool _) as v -> Value.to_string v

let render_key (k : key) =
  if Array.length k = 1 then render_value k.(0)
  else String.concat "," (Array.to_list (Array.map render_value k))

module Key_tbl = Hashtbl.Make (Key_hashed)

(* A key's versions, newest first: each one immutable block of three
   fields, 4 words with its header. A free slot of the chain table holds
   [Nil]. *)
type chain = Nil | V of { version : int; row : Value.t array option; older : chain }

(* The ordered key directory: every key of the store in ascending
   order, cut into chunks of at most [chunk_cap] keys, themselves held
   in key order in a growable array. An insert is a binary search over
   the chunk maxima, one inside the chunk, and a blit of at most
   [chunk_cap] slots; a full chunk first splits in half. It is built on
   the first ordered access and kept up to date in place from then on.
   Point reads/updates (the hot path) never touch it, and a table that
   is never scanned never builds it, so bulk load allocates nothing for
   it. *)
let chunk_cap = 64

type chunk = {
  keys : key array;  (* [chunk_cap] slots; the first [len] hold keys *)
  mutable len : int;  (* >= 1 in a live chunk *)
}

type dir = {
  mutable chunks : chunk array;  (* the first [count] are live *)
  mutable count : int;
  mutable mods : int;  (* keys inserted since the build; see [walk] *)
}

(* Spare slots hold these, so a slot keeps no key alive. *)
let no_key : key = [||]

let no_chunk = { keys = [||]; len = 0 }

let new_chunk () = { keys = Array.make chunk_cap no_key; len = 0 }

(* A build fills each chunk only to [build_fill], so the inserts that
   follow it do not split every chunk they reach. *)
let build_fill = chunk_cap / 2

let build_dir keys =
  Array.stable_sort Key_order.compare keys;
  let n = Array.length keys in
  let count = (n + build_fill - 1) / build_fill in
  let chunks =
    Array.init (max 4 count) (fun c ->
        if c >= count then no_chunk
        else begin
          let chunk = new_chunk () in
          chunk.len <- min build_fill (n - (c * build_fill));
          Array.blit keys (c * build_fill) chunk.keys 0 chunk.len;
          chunk
        end)
  in
  { chunks; count; mods = 0 }

let copy_dir d =
  { d with chunks = Array.map (fun c -> { c with keys = Array.copy c.keys }) d.chunks }

(* Index of the first chunk in [lo, hi) whose largest key is [>= key],
   or [hi] if there is none. *)
let rec seek_chunk d key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    let c = d.chunks.(mid) in
    if Key_order.compare c.keys.(c.len - 1) key < 0 then seek_chunk d key (mid + 1) hi
    else seek_chunk d key lo mid

(* Index of the first key in [c.keys.(lo .. hi - 1)] that is [>= key],
   or [hi]. *)
let rec seek_key c key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Key_order.compare c.keys.(mid) key < 0 then seek_key c key (mid + 1) hi
    else seek_key c key lo mid

let insert_at c i key =
  Array.blit c.keys i c.keys (i + 1) (c.len - i);
  c.keys.(i) <- key;
  c.len <- c.len + 1

let add_chunk d i chunk =
  if d.count = Array.length d.chunks then begin
    let chunks = Array.make (2 * d.count) no_chunk in
    Array.blit d.chunks 0 chunks 0 d.count;
    d.chunks <- chunks
  end;
  Array.blit d.chunks i d.chunks (i + 1) (d.count - i);
  d.chunks.(i) <- chunk;
  d.count <- d.count + 1

(* Insert a key the directory does not hold. *)
let dir_insert d key =
  d.mods <- d.mods + 1;
  if d.count = 0 then begin
    let c = new_chunk () in
    insert_at c 0 key;
    add_chunk d 0 c
  end
  else
    let ci = min (seek_chunk d key 0 d.count) (d.count - 1) in
    let c = d.chunks.(ci) in
    let i = seek_key c key 0 c.len in
    if c.len < chunk_cap then insert_at c i key
    else begin
      let half = chunk_cap / 2 in
      let right = new_chunk () in
      Array.blit c.keys half right.keys 0 (chunk_cap - half);
      Array.fill c.keys half (chunk_cap - half) no_key;
      right.len <- chunk_cap - half;
      c.len <- half;
      add_chunk d (ci + 1) right;
      if i <= half then insert_at c i key else insert_at right (i - half) key
    end

(* A walk reads the chunks in place, so [f] must not insert a key:
   [mods] moving under it is an error rather than a silently skipped
   or repeated key. *)
let walk d ?lo ?hi f =
  let mods = d.mods in
  let rec go ci i =
    if ci < d.count then begin
      let c = d.chunks.(ci) in
      if i >= c.len then go (ci + 1) 0
      else
        let key = c.keys.(i) in
        match hi with
        | Some hi when Key_order.compare key hi > 0 -> ()
        | Some _ | None ->
          f key;
          if d.mods <> mods then
            invalid_arg "Mvcc: a key was installed during an ordered walk of its store";
          go ci (i + 1)
    end
  in
  match lo with
  | None -> go 0 0
  | Some lo ->
    let ci = seek_chunk d lo 0 d.count in
    if ci < d.count then go ci (seek_key d.chunks.(ci) lo 0 d.chunks.(ci).len)

(* The chain table: two parallel arrays of [2^bits] slots, probed
   linearly from a key's home slot. A slot is free while its key is
   [no_key], and a key, once in, never moves except when the table
   doubles, so the slot arrays need no tombstones. A key's chain is
   never empty ([gc] keeps at least one version), so a free slot is
   also the one whose chain is [Nil]. The load stays at or below 3/4,
   so a probe always ends, on the key or on a free slot. Both arrays
   may be shared with the stores copied from or into this one (see
   [copy]): while [keys_shared] or [chains_shared] holds, that array is
   read-only here, and the first write to it copies it. *)
type t = {
  mutable keys : key array;
  mutable chains : chain array;
  mutable shift : int;  (* [Sys.int_size - bits] *)
  mutable count : int;  (* occupied slots *)
  mutable superseded : int;  (* versions minus keys: what [gc] could drop *)
  mutable keys_shared : bool;
  mutable chains_shared : bool;
  mutable dir : dir option;  (* [None] until the first ordered access *)
}

let initial_bits = 4

let create () =
  let capacity = 1 lsl initial_bits in
  {
    keys = Array.make capacity no_key;
    chains = Array.make capacity Nil;
    shift = Sys.int_size - initial_bits;
    count = 0;
    superseded = 0;
    keys_shared = false;
    chains_shared = false;
    dir = None;
  }

(* The home slot is the top [bits] bits of [hash * slot_mix], an odd
   constant near [2^63 / golden ratio]: multiplication carries every
   bit of the hash into the top ones, which keep dense ints apart. *)
let slot_mix = 0x4F1BBCDCBFA53E0B

let home shift key = (Key_hashed.hash key * slot_mix) lsr shift

(* The slot holding [key], or else the free slot that ends its probe
   run. *)
let rec probe keys key i mask =
  let k = Array.unsafe_get keys i in
  if k == no_key || Key_hashed.equal k key then i else probe keys key ((i + 1) land mask) mask

let slot t key = probe t.keys key (home t.shift key) (Array.length t.keys - 1)

let rec free_slot keys i mask =
  if Array.unsafe_get keys i == no_key then i else free_slot keys ((i + 1) land mask) mask

let grow t =
  let capacity = 2 * Array.length t.keys in
  let shift = t.shift - 1 in
  let keys = Array.make capacity no_key and chains = Array.make capacity Nil in
  Array.iteri
    (fun j key ->
      if key != no_key then begin
        let i = free_slot keys (home shift key) (capacity - 1) in
        keys.(i) <- key;
        chains.(i) <- t.chains.(j)
      end)
    t.keys;
  t.keys <- keys;
  t.chains <- chains;
  t.shift <- shift;
  t.keys_shared <- false;
  t.chains_shared <- false

(* Keys, versions and rows are immutable, and so is each chain; both
   slot arrays are shared too, each until either side first writes to
   it. Only a built directory is copied. *)
let copy t =
  t.keys_shared <- true;
  t.chains_shared <- true;
  { t with dir = Option.map copy_dir t.dir }

(* Make the chain array this store's own before a write-back. *)
let own_chains t =
  if t.chains_shared then begin
    t.chains <- Array.copy t.chains;
    t.chains_shared <- false
  end

(* Put a brand-new key in the free slot [i] that ended its probe. *)
let add t i key chain =
  let i =
    if 4 * (t.count + 1) > 3 * Array.length t.keys then begin
      grow t;
      slot t key
    end
    else begin
      if t.keys_shared then begin
        t.keys <- Array.copy t.keys;
        t.keys_shared <- false
      end;
      own_chains t;
      i
    end
  in
  t.keys.(i) <- key;
  t.chains.(i) <- chain;
  t.count <- t.count + 1;
  match t.dir with Some d -> dir_insert d key | None -> ()

let install_if_newer t key ~version row =
  (* A free slot holds [no_key], an empty array, so an empty key could
     not be told from one. *)
  if Array.length key = 0 then invalid_arg "Mvcc.install: empty key";
  let i = slot t key in
  match Array.unsafe_get t.chains i with
  | V { version = newest; _ } when newest >= version -> false
  | Nil ->
    add t i key (V { version; row; older = Nil });
    true
  | older ->
    own_chains t;
    Array.unsafe_set t.chains i (V { version; row; older });
    t.superseded <- t.superseded + 1;
    true

let latest_version t key =
  match Array.unsafe_get t.chains (slot t key) with
  | Nil -> None
  | V { version; _ } -> Some version

let install t key ~version row =
  if not (install_if_newer t key ~version row) then
    invalid_arg
      (Printf.sprintf "Mvcc.install: version %d not above newest %d" version
         (Option.get (latest_version t key)))

let rec visible at = function
  | Nil -> None
  | V { version; row; older } -> if version <= at then row else visible at older

let read t key ~at = visible at (Array.unsafe_get t.chains (slot t key))

let key_count t = t.count

let version_count t = t.count + t.superseded

let dir t =
  match t.dir with
  | Some d -> d
  | None ->
    let keys = Array.to_seq t.keys |> Seq.filter (fun key -> key != no_key) |> Array.of_seq in
    let d = build_dir keys in
    t.dir <- Some d;
    d

let iter_keys_ordered t f = walk (dir t) f

let iter_keys_range t ?lo ?hi f = walk (dir t) ?lo ?hi f

let fold_visible t ~at ~init ~f =
  let acc = ref init in
  walk (dir t) (fun key ->
      match read t key ~at with None -> () | Some row -> acc := f !acc key row);
  !acc

(* Keep every version newer than the horizon, plus the newest one at or
   below it (still visible to snapshots above the horizon). A chain with
   nothing older than that comes back physically unchanged, and
   otherwise only the kept prefix is copied. *)
let rec trim keep_after = function
  | V ({ version; older; _ } as v) as chain when version > keep_after ->
    let kept = trim keep_after older in
    if kept == older then chain else V { v with older = kept }
  | (Nil | V { older = Nil; _ }) as chain -> chain
  | V { version; row; _ } -> V { version; row; older = Nil }

let rec length n = function Nil -> n | V { older; _ } -> length (n + 1) older

(* A store with no superseded version has nothing to drop and is not
   read at all; otherwise only a chain that [trim] shortens is written
   back. *)
let gc t ~keep_after =
  if t.superseded = 0 then 0
  else begin
    let removed = ref 0 in
    for i = 0 to Array.length t.chains - 1 do
      let chain = Array.unsafe_get t.chains i in
      let kept = trim keep_after chain in
      if kept != chain then begin
        removed := !removed + length 0 chain - length 0 kept;
        own_chains t;
        Array.unsafe_set t.chains i kept
      end
    done;
    t.superseded <- t.superseded - !removed;
    !removed
  end
