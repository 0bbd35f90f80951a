type cost = {
  rows_scanned : int;
  rows_read : int;
  rows_written : int;
}

type buffered = Bput of Value.t array | Bdelete

(* One buffered record write. The table/key pair is kept for writeset
   extraction. The record's conflict id is resolved once, on the first
   write, and kept here: lookups, early certification and the writeset
   all reuse it, so nothing re-interns a key the buffer already holds. *)
type wcell = {
  w_table : string;
  w_key : Mvcc.key;
  w_cid : int;  (* conflict id under the database's intern table *)
  mutable w_op : buffered;
}

type t = {
  db : Database.t;
  snapshot : int;
  writes : wcell Util.Tables.Itbl.t;  (* conflict id -> cell *)
  mutable write_order : wcell list;  (* reversed first-write order *)
  mutable scanned : int;
  mutable read : int;
  mutable written : int;
}

let begin_at db ~snapshot =
  if snapshot > Database.version db then
    invalid_arg
      (Printf.sprintf "Txn.begin_at: snapshot %d beyond database version %d" snapshot
         (Database.version db));
  {
    db;
    snapshot;
    writes = Util.Tables.Itbl.create 8;
    write_order = [];
    scanned = 0;
    read = 0;
    written = 0;
  }

let begin_ db = begin_at db ~snapshot:(Database.version db)

let snapshot t = t.snapshot

let database t = t.db

let cost t = { rows_scanned = t.scanned; rows_read = t.read; rows_written = t.written }

let reset_cost t =
  let c = cost t in
  t.scanned <- 0;
  t.read <- 0;
  t.written <- 0;
  c

let buffer t table key op =
  let kid = Intern.id (Database.intern t.db) ~table ~key in
  (match Util.Tables.Itbl.find_opt t.writes kid with
  | Some cell -> cell.w_op <- op
  | None ->
    let cell = { w_table = table; w_key = key; w_cid = kid; w_op = op } in
    Util.Tables.Itbl.add t.writes kid cell;
    t.write_order <- cell :: t.write_order);
  t.written <- t.written + 1

(* The write buffer's view of one record, if any. Read-only-so-far
   transactions (the common case) skip the probe entirely; otherwise a
   key the group has never interned cannot have been written here. *)
let local_find t ~table ~key =
  match t.write_order with
  | [] -> None
  | _ -> (
    match Intern.find (Database.intern t.db) ~table ~key with
    | None -> None
    | Some kid -> Util.Tables.Itbl.find_opt t.writes kid)

(* Point read overlaying the write buffer on the snapshot. *)
let get_raw t ~table ~key =
  match local_find t ~table ~key with
  | Some { w_op = Bput row; _ } -> Some row
  | Some { w_op = Bdelete; _ } -> None
  | None -> Table.read (Database.table t.db table) ~key ~at:t.snapshot

let get t ~table ~key =
  let r = get_raw t ~table ~key in
  t.scanned <- t.scanned + 1;
  (match r with Some _ -> t.read <- t.read + 1 | None -> ());
  r

(* Extract an indexable equality [col = const] from a predicate:
   only top-level conjunctions are mined. *)
let rec indexable_eq table expr =
  match expr with
  | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Const v) | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Col c)
    ->
    if Table.has_index table ~column:c then Some (c, v) else None
  | Expr.And (a, b) -> begin
    match indexable_eq table a with Some _ as hit -> hit | None -> indexable_eq table b
  end
  | _ -> None

(* Is the predicate exactly a primary-key equality (single-column keys)? *)
let key_eq table expr =
  let schema = Table.schema table in
  if Array.length schema.Schema.primary_key <> 1 then None
  else
    let kcol = schema.Schema.primary_key.(0) in
    match expr with
    | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Const v) | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Col c)
      when c = kcol ->
      Some [| v |]
    | _ -> None

let matching_local_writes t table_name pred =
  List.fold_left
    (fun acc cell ->
      if String.equal cell.w_table table_name then
        match cell.w_op with
        | Bput row when pred row -> (cell.w_key, Some row) :: acc
        | Bput _ -> (cell.w_key, None) :: acc  (* overrides base row that may match *)
        | Bdelete -> (cell.w_key, None) :: acc
      else acc)
    [] t.write_order

let select t ~table:table_name ?where ?limit () =
  let table = Database.table t.db table_name in
  let pred row = match where with None -> true | Some e -> Expr.eval_bool row e in
  let base, overlay_keys =
    match where with
    | Some e when key_eq table e <> None -> begin
      (* Primary-key point lookup. *)
      let key = match key_eq table e with Some k -> k | None -> assert false in
      t.scanned <- t.scanned + 1;
      match Table.read table ~key ~at:t.snapshot with
      | Some row when pred row -> ([ (key, row) ], [ key ])
      | Some _ | None -> ([], [ key ])
    end
    | Some e -> begin
      match indexable_eq table e with
      | Some (col, v) ->
        let hits = Table.index_lookup table ~column:col ~value:v ~at:t.snapshot in
        t.scanned <- t.scanned + List.length hits;
        (List.filter (fun (_, row) -> pred row) hits, List.map fst hits)
      | None ->
        let hits, examined = Table.scan table ~at:t.snapshot ~where:pred ?limit () in
        t.scanned <- t.scanned + examined;
        (hits, List.map fst hits)
    end
    | None ->
      let hits, examined = Table.scan table ~at:t.snapshot ~where:pred ?limit () in
      t.scanned <- t.scanned + examined;
      (hits, List.map fst hits)
  in
  ignore overlay_keys;
  (* Overlay the write buffer: local puts that match are added/replace,
     local deletes and non-matching puts hide base rows. *)
  let local = matching_local_writes t table_name pred in
  let hidden = List.map fst local in
  let base_kept =
    List.filter
      (fun (key, _) -> not (List.exists (fun k -> Mvcc.Key_order.compare k key = 0) hidden))
      base
  in
  let added = List.filter_map (fun (_, row) -> row) local in
  let rows = List.map snd base_kept @ added in
  let rows = match limit with Some l -> List.filteri (fun i _ -> i < l) rows | None -> rows in
  t.read <- t.read + List.length rows;
  rows

let in_range ?lo ?hi key =
  (match lo with Some lo -> Mvcc.Key_order.compare key lo >= 0 | None -> true)
  && match hi with Some hi -> Mvcc.Key_order.compare key hi <= 0 | None -> true

let range t ~table:table_name ?lo ?hi ?where ?limit () =
  let table = Database.table t.db table_name in
  let schema = Table.schema table in
  let pred row = match where with None -> true | Some e -> Expr.eval_bool row e in
  let base, examined = Table.range_scan table ~at:t.snapshot ?lo ?hi ~where:pred ?limit () in
  t.scanned <- t.scanned + examined;
  (* Overlay local writes whose keys fall inside the range. *)
  let local =
    matching_local_writes t table_name pred
    |> List.filter (fun (key, _) -> in_range ?lo ?hi key)
  in
  let hidden = List.map fst local in
  let base_kept =
    List.filter
      (fun (key, _) -> not (List.exists (fun k -> Mvcc.Key_order.compare k key = 0) hidden))
      base
  in
  let added =
    List.filter_map (fun (_, row) -> row) local
    |> List.sort (fun a b ->
           Mvcc.Key_order.compare (Schema.key_of_row schema a) (Schema.key_of_row schema b))
  in
  let rows = List.map snd base_kept @ added in
  let rows = match limit with Some l -> List.filteri (fun i _ -> i < l) rows | None -> rows in
  t.read <- t.read + List.length rows;
  rows

let insert t ~table:table_name row =
  let table = Database.table t.db table_name in
  let schema = Table.schema table in
  match Schema.validate_row schema row with
  | Error msg -> Error msg
  | Ok () ->
    let key = Schema.key_of_row schema row in
    if get_raw t ~table:table_name ~key <> None then
      Error
        (Format.asprintf "%s: duplicate key %a" table_name
           (Format.pp_print_list Value.pp) (Array.to_list key))
    else begin
      buffer t table_name key (Bput row);
      Ok ()
    end

let put t ~table:table_name row =
  let table = Database.table t.db table_name in
  let schema = Table.schema table in
  match Schema.validate_row schema row with
  | Error msg -> Error msg
  | Ok () ->
    buffer t table_name (Schema.key_of_row schema row) (Bput row);
    Ok ()

let apply_set schema row set =
  let row = Array.copy row in
  List.iter
    (fun (col_name, expr) ->
      let idx =
        match Schema.column_index schema col_name with
        | idx -> idx
        | exception Not_found ->
          invalid_arg
            (Printf.sprintf "Txn.update: unknown column %s.%s" schema.Schema.table_name
               col_name)
      in
      row.(idx) <- Expr.eval row expr)
    set;
  row

let update t ~table:table_name ?where ~set () =
  let table = Database.table t.db table_name in
  let schema = Table.schema table in
  let victims = select t ~table:table_name ?where () in
  List.iter
    (fun row ->
      let updated = apply_set schema row set in
      let key = Schema.key_of_row schema row in
      let new_key = Schema.key_of_row schema updated in
      if Mvcc.Key_order.compare key new_key <> 0 then
        invalid_arg "Txn.update: updating primary-key columns is not supported";
      buffer t table_name key (Bput updated))
    victims;
  List.length victims

let update_key t ~table:table_name ~key ~set =
  match get t ~table:table_name ~key with
  | None -> false
  | Some row ->
    let schema = Table.schema (Database.table t.db table_name) in
    let updated = apply_set schema row set in
    buffer t table_name key (Bput updated);
    true

let delete t ~table:table_name ?where () =
  let schema = Table.schema (Database.table t.db table_name) in
  let victims = select t ~table:table_name ?where () in
  List.iter
    (fun row -> buffer t table_name (Schema.key_of_row schema row) Bdelete)
    victims;
  List.length victims

let delete_key t ~table:table_name ~key =
  match get t ~table:table_name ~key with
  | None -> false
  | Some _ ->
    buffer t table_name key Bdelete;
    true

(* The cells are already one per record, each holding its latest op, so
   the writeset is a straight copy: entries in first-write order and
   their ids, with no second interning or dedup pass. *)
let writeset t =
  let cids = Array.make (Util.Tables.Itbl.length t.writes) 0 in
  let i = ref (Array.length cids) in
  let entries =
    List.fold_left
      (fun acc cell ->
        decr i;
        cids.(!i) <- cell.w_cid;
        let ws_op =
          match cell.w_op with Bput row -> Writeset.Put row | Bdelete -> Writeset.Delete
        in
        { Writeset.ws_table = cell.w_table; ws_key = cell.w_key; ws_op } :: acc)
      [] t.write_order
  in
  Writeset.of_resolved ~intern:(Database.intern t.db) entries cids

let writes_id t kid = Util.Tables.Itbl.mem t.writes kid

let exists_write_id t f = List.exists (fun cell -> f cell.w_cid) t.write_order

let is_read_only t = t.write_order = []

let validate t =
  List.for_all
    (fun cell ->
      match Table.latest_version (Database.table t.db cell.w_table) ~key:cell.w_key with
      | None -> true
      | Some v -> v <= t.snapshot)
    t.write_order

let commit_standalone t =
  if is_read_only t then Ok t.snapshot
  else if not (validate t) then Error "write-write conflict"
  else begin
    let version = Database.version t.db + 1 in
    Database.apply t.db (writeset t) ~version;
    Ok version
  end
