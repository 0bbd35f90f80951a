type key = Value.t array

module Key_order = struct
  type t = key

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    let rec go i =
      if i >= la && i >= lb then 0
      else if i >= la then -1
      else if i >= lb then 1
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
end

(* Chains live in a hashtable specialized to keys: [Value.hash] reads
   each constructor directly where the polymorphic hash would traverse
   the boxed representation on every probe, and equality via
   [Key_order.compare] keeps the same int/float coercions the ordered
   directory uses. *)
module Key_hashed = struct
  type t = key

  let equal a b = Key_order.compare a b = 0

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

module Key_set = Set.Make (Key_order)

type version = { version : int; row : Value.t array option }

(* The ordered key directory is built on the first ordered access and
   kept up to date from then on: a brand-new key costs one O(log n) set
   insertion. Point reads/updates (the hot path) never touch it, and a
   table that is never scanned never builds it, so bulk load allocates
   nothing for it. *)
type t = {
  chains : version list ref Key_tbl.t;
  mutable dir : Key_set.t option;  (* [None] until the first ordered access *)
}

let create () = { chains = Key_tbl.create 256; dir = None }

(* Keys, version records and rows are immutable, so a copy shares them
   and the persistent directory; only the table and each chain's [ref]
   are fresh. [Key_tbl.copy] keeps the bucket layout, so the copy
   iterates in the original's order. *)
let copy t =
  let chains = Key_tbl.copy t.chains in
  Key_tbl.filter_map_inplace (fun _ chain -> Some (ref !chain)) chains;
  { chains; dir = t.dir }

let install_if_newer t key ~version row =
  match Key_tbl.find_opt t.chains key with
  | None ->
    Key_tbl.add t.chains key (ref [ { version; row } ]);
    (match t.dir with Some d -> t.dir <- Some (Key_set.add key d) | None -> ());
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

let read t key ~at =
  match Key_tbl.find_opt t.chains key with
  | None -> None
  | Some chain ->
    let rec visible = function
      | [] -> None
      | { version; row } :: rest -> if version <= at then row else visible rest
    in
    visible !chain

let key_count t = Key_tbl.length t.chains

let version_count t =
  Key_tbl.fold (fun _ chain acc -> acc + List.length !chain) t.chains 0

let dir t =
  match t.dir with
  | Some d -> d
  | None ->
    let d = Key_set.of_list (Key_tbl.fold (fun key _ acc -> key :: acc) t.chains []) in
    t.dir <- Some d;
    d

let iter_keys_ordered t f = Key_set.iter f (dir t)

let iter_keys_range t ?lo ?hi f =
  let d = dir t in
  let rec go seq =
    match seq () with
    | Seq.Cons (key, rest) -> (
      match hi with
      | Some hi when Key_order.compare key hi > 0 -> ()
      | Some _ | None ->
        f key;
        go rest)
    | Seq.Nil -> ()
  in
  go (match lo with None -> Key_set.to_seq d | Some lo -> Key_set.to_seq_from lo d)

let fold_visible t ~at ~init ~f =
  Key_set.fold
    (fun key acc -> match read t key ~at with None -> acc | Some row -> f acc key row)
    (dir t) init

let fold_chains t ~init ~f =
  Key_set.fold
    (fun key acc ->
      match Key_tbl.find_opt t.chains key with
      | None -> acc
      | Some chain -> f acc key (List.map (fun { version; row } -> (version, row)) !chain))
    (dir t) init

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
