module Itbl = Util.Tables.Itbl

type op =
  | Put of Value.t array
  | Delete

type entry = {
  ws_table : string;
  ws_key : Value.t array;
  ws_op : op;
}

(* (table, key) pairs under the store's key equality ({!Mvcc.Key_hashed}),
   so the foreign path below and the interned ids agree on which writes
   collide. *)
module Pair_tbl = Hashtbl.Make (struct
  type t = string * Value.t array

  let equal (ta, ka) (tb, kb) = String.equal ta tb && Mvcc.Key_hashed.equal ka kb

  let hash (table, key) = ((Hashtbl.hash table * 31) + Mvcc.Key_hashed.hash key) land max_int
end)

type t = {
  items : entry list;  (* insertion order *)
  mutable index : entry Pair_tbl.t option;
      (* tuple-keyed probe index, built on first demand: the interned
         paths never need it, so the common case pays nothing *)
  card : int;  (* |items|, precomputed: [cardinal] sits on the certifier hot path *)
  kids : int array;  (* conflict ids aligned with [items]; [||] unless interned *)
  origin : Intern.t option;  (* the table [kids] was resolved against *)
}

let empty = { items = []; index = None; card = 0; kids = [||]; origin = None }

let build_index items =
  let index = Pair_tbl.create ((2 * List.length items) + 1) in
  List.iter (fun e -> Pair_tbl.replace index (e.ws_table, e.ws_key) e) items;
  index

let index t =
  match t.index with
  | Some ix -> ix
  | None ->
    let ix = build_index t.items in
    t.index <- Some ix;
    ix

let of_entries ?intern entries =
  (* Later writes supersede earlier ones for the same record; keep first
     occurrence position for ordering. *)
  match intern with
  | Some it ->
    (* Resolve each entry's conflict id exactly once; superseding and
       dedup then run over dense ints — no tuple keys, no polymorphic
       hashing of value arrays. *)
    let resolved =
      List.map (fun e -> (Intern.id it ~table:e.ws_table ~key:e.ws_key, e)) entries
    in
    let last = Itbl.create 16 in
    List.iter (fun (id, e) -> Itbl.replace last id e) resolved;
    let seen = Itbl.create 16 in
    let items_rev, kids_rev, card =
      List.fold_left
        (fun (items, kids, n) (id, _) ->
          if Itbl.mem seen id then (items, kids, n)
          else begin
            Itbl.add seen id ();
            (Itbl.find last id :: items, id :: kids, n + 1)
          end)
        ([], [], 0) resolved
    in
    {
      items = List.rev items_rev;
      index = None;
      card;
      kids = Array.of_list (List.rev kids_rev);
      origin = Some it;
    }
  | None ->
    let index = build_index entries in
    let seen = Pair_tbl.create 16 in
    let items =
      List.filter_map
        (fun e ->
          let k = (e.ws_table, e.ws_key) in
          if Pair_tbl.mem seen k then None
          else begin
            Pair_tbl.add seen k ();
            Some (Pair_tbl.find index k)
          end)
        entries
    in
    { items; index = Some index; card = Pair_tbl.length seen; kids = [||]; origin = None }

let of_resolved ~intern items cids =
  { items; index = None; card = Array.length cids; kids = cids; origin = Some intern }

let is_empty t = t.items = []

let entries t = t.items

let cardinal t = t.card

let origin t = t.origin

let interned t ~intern = match t.origin with Some o -> o == intern | None -> false

let cids t ~intern =
  match t.origin with
  | Some o when o == intern -> t.kids
  | _ ->
    (* Foreign or un-interned writeset (tests and standalone fixtures
       drive the certifier/replica APIs with bare writesets): resolve
       through the caller's table so its ids stay comparable with every
       other id it handed out. *)
    let arr = Array.make t.card 0 in
    List.iteri
      (fun i e -> arr.(i) <- Intern.id intern ~table:e.ws_table ~key:e.ws_key)
      t.items;
    arr

let tables t =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun e ->
      if Hashtbl.mem seen e.ws_table then None
      else begin
        Hashtbl.add seen e.ws_table ();
        Some e.ws_table
      end)
    t.items

let mem t ~table ~key = Pair_tbl.mem (index t) (table, key)

let keys t = List.map (fun e -> (e.ws_table, e.ws_key)) t.items

let conflicts a b =
  if a.card = 0 || b.card = 0 then false
  else
    match (a.origin, b.origin) with
    | Some oa, Some ob when oa == ob ->
      (* Same intern table: the ids are directly comparable. Writesets
         are a handful of rows, so direct scans beat hashing; the rare
         large pair falls back to an int-keyed set. *)
      let small, large = if a.card <= b.card then (a.kids, b.kids) else (b.kids, a.kids) in
      if Array.length small * Array.length large <= 1024 then
        Array.exists (fun k -> Array.exists (Int.equal k) large) small
      else begin
        let set = Itbl.create (2 * Array.length large) in
        Array.iter (fun k -> Itbl.replace set k ()) large;
        Array.exists (fun k -> Itbl.mem set k) small
      end
    | _ ->
      (* Probe the smaller set against the larger one's hash index. *)
      let small, large = if a.card <= b.card then (a, b) else (b, a) in
      let ix = index large in
      List.exists (fun e -> Pair_tbl.mem ix (e.ws_table, e.ws_key)) small.items

let size_bytes t =
  List.fold_left
    (fun acc e ->
      let key_size = Array.fold_left (fun s v -> s + Value.size_bytes v) 0 e.ws_key in
      let op_size =
        match e.ws_op with
        | Put row -> Array.fold_left (fun s v -> s + Value.size_bytes v) 0 row
        | Delete -> 1
      in
      acc + key_size + op_size + String.length e.ws_table + 8)
    0 t.items

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      let pp_key ppf key =
        Array.iteri
          (fun i v -> Format.fprintf ppf "%s%a" (if i > 0 then "," else "") Value.pp v)
          key
      in
      match e.ws_op with
      | Put _ -> Format.fprintf ppf "PUT %s[%a]@," e.ws_table pp_key e.ws_key
      | Delete -> Format.fprintf ppf "DEL %s[%a]@," e.ws_table pp_key e.ws_key)
    t.items;
  Format.fprintf ppf "@]"
