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

(* Chains live in a hashtable specialized to keys: [hash] reads each
   constructor directly where the polymorphic hash would traverse the
   boxed representation on every probe, and [equal] holds exactly when
   [Key_order.compare] returns 0, so it keeps the same int/float
   coercions the ordered directory uses. *)
module Key_hashed = struct
  type t = key

  let equal a b =
    let n = Array.length a in
    n = Array.length b && equal_from a b 0 n

  let hash (k : key) =
    let h = ref (Array.length k) in
    for i = 0 to Array.length k - 1 do
      (* Ints hash as themselves: primary keys are typically dense, so
         the identity is uniform under the table's power-of-two masking
         and skips a generic-hash call per element per probe. An
         integral float equals the int of the same value under
         [equal], so it must hash as that int too. *)
      let hv =
        match Array.unsafe_get k i with
        | Value.Int x -> x
        | Value.Float x when Float.is_integer x -> int_of_float x
        | Value.Text s -> Hashtbl.hash s
        | v -> Value.hash v
      in
      h := (!h * 31) + hv
    done;
    !h land max_int
end

module Key_tbl = Hashtbl.Make (Key_hashed)

type version = { version : int; row : Value.t array option }

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

type t = {
  chains : version list ref Key_tbl.t;
  mutable dir : dir option;  (* [None] until the first ordered access *)
}

let create () = { chains = Key_tbl.create 256; dir = None }

(* Keys, version records and rows are immutable, so a copy shares them;
   the table, each chain's [ref] and a built directory are fresh.
   [Key_tbl.copy] keeps the bucket layout, so the copy iterates in the
   original's order. *)
let copy t =
  let chains = Key_tbl.copy t.chains in
  Key_tbl.filter_map_inplace (fun _ chain -> Some (ref !chain)) chains;
  { chains; dir = Option.map copy_dir t.dir }

let install_if_newer t key ~version row =
  match Key_tbl.find_opt t.chains key with
  | None ->
    Key_tbl.add t.chains key (ref [ { version; row } ]);
    (match t.dir with Some d -> dir_insert d key | None -> ());
    true
  | Some chain -> (
    match !chain with
    | { version = newest; _ } :: _ when newest >= version -> false
    | versions ->
      chain := { version; row } :: versions;
      true)

let latest_version t key =
  match Key_tbl.find_opt t.chains key with
  | None -> None
  | Some chain -> ( match !chain with [] -> None | { version; _ } :: _ -> Some version)

let install t key ~version row =
  if not (install_if_newer t key ~version row) then
    invalid_arg
      (Printf.sprintf "Mvcc.install: version %d not above newest %d" version
         (Option.get (latest_version t key)))

let rec visible at = function
  | [] -> None
  | { version; row } :: rest -> if version <= at then row else visible at rest

let read t key ~at =
  match Key_tbl.find t.chains key with
  | chain -> visible at !chain
  | exception Not_found -> None

let key_count t = Key_tbl.length t.chains

let version_count t =
  Key_tbl.fold (fun _ chain acc -> acc + List.length !chain) t.chains 0

let dir t =
  match t.dir with
  | Some d -> d
  | None ->
    let keys = Array.make (Key_tbl.length t.chains) no_key in
    let n = ref 0 in
    Key_tbl.iter
      (fun key _ ->
        keys.(!n) <- key;
        incr n)
      t.chains;
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

let gc t ~keep_after =
  let removed = ref 0 in
  (* Keep every version newer than the horizon, plus the newest one at or
     below it (still visible to snapshots above the horizon). A chain
     with nothing older than that comes back physically unchanged, and
     otherwise only the kept prefix is copied. *)
  let rec trim = function
    | ({ version; _ } as v) :: rest as versions when version > keep_after ->
      let kept = trim rest in
      if kept == rest then versions else v :: kept
    | ([] | [ _ ]) as versions -> versions
    | v :: rest ->
      removed := !removed + List.length rest;
      [ v ]
  in
  Key_tbl.iter (fun _ chain -> chain := trim !chain) t.chains;
  !removed
