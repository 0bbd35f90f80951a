type t = {
  tables : (string, Table.t) Hashtbl.t;
  mutable order : string list;  (* creation order, reversed *)
  mutable version : int;
  intern : Intern.t;
      (* the conflict-key intern table writesets extracted from this
         database resolve against; shared across a replication group *)
}

let create ?intern () =
  {
    tables = Hashtbl.create 16;
    order = [];
    version = 0;
    intern = (match intern with Some it -> it | None -> Intern.create ());
  }

let intern t = t.intern

let create_table t schema =
  let name = schema.Schema.table_name in
  if Hashtbl.mem t.tables name then
    invalid_arg ("Database.create_table: duplicate table " ^ name);
  let table = Table.create schema in
  Hashtbl.add t.tables name table;
  t.order <- name :: t.order;
  table

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some table -> table
  | None -> raise Not_found

let table_opt t name = Hashtbl.find_opt t.tables name

let table_names t = List.rev t.order

let version t = t.version

(* Redo semantics: re-applying a writeset whose entries (or a prefix of
   them) are already installed at [version] is a no-op for those entries.
   Crash recovery replays the certifier log from the last published
   version, which may re-deliver a writeset that was partially installed
   by an interrupted parallel batch apply. *)
let install_entries t ws ~version =
  List.iter
    (fun entry ->
      let table =
        match Hashtbl.find_opt t.tables entry.Writeset.ws_table with
        | Some table -> table
        | None -> invalid_arg ("Database.apply: unknown table " ^ entry.Writeset.ws_table)
      in
      let row =
        match entry.Writeset.ws_op with Writeset.Put row -> Some row | Delete -> None
      in
      ignore (Table.install_if_newer table ~key:entry.Writeset.ws_key ~version row))
    (Writeset.entries ws)

let apply t ws ~version =
  if version <> t.version + 1 then
    invalid_arg
      (Printf.sprintf "Database.apply: version %d out of order (local is %d)" version
         t.version);
  install_entries t ws ~version;
  t.version <- version

let apply_unpublished t ws ~version =
  if version <= t.version then
    invalid_arg
      (Printf.sprintf "Database.apply_unpublished: version %d already published (local is %d)"
         version t.version);
  install_entries t ws ~version

let publish t ~version =
  if version < t.version then
    invalid_arg
      (Printf.sprintf "Database.publish: version %d below published %d" version t.version);
  t.version <- version

let load t name rows =
  if t.version <> 0 then invalid_arg "Database.load: database already has commits";
  let table = table t name in
  let schema = Table.schema table in
  List.iter
    (fun row ->
      (match Schema.validate_row schema row with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Database.load: " ^ msg));
      Table.install table ~key:(Schema.key_of_row schema row) ~version:0 (Some row))
    rows

let gc t ~keep_after =
  Hashtbl.fold (fun _ table acc -> acc + Table.gc table ~keep_after) t.tables 0

let total_versions t =
  Hashtbl.fold (fun _ table acc -> acc + Table.version_count table) t.tables 0

(* --- Checkpointing --- *)

let snapshot_magic = "REPRODB1"

let snapshot t =
  let buf = Buffer.create 65_536 in
  Buffer.add_string buf snapshot_magic;
  Codec.encode_int buf t.version;
  let names = table_names t in
  Codec.encode_int buf (List.length names);
  List.iter
    (fun name ->
      let tbl = table t name in
      Codec.encode_schema buf (Table.schema tbl);
      let chains =
        Table.fold_chains tbl ~init:[] ~f:(fun acc key chain -> (key, chain) :: acc)
      in
      let chains = List.rev chains in
      Codec.encode_int buf (List.length chains);
      List.iter
        (fun (key, chain) ->
          Codec.encode_row buf key;
          Codec.encode_int buf (List.length chain);
          (* Oldest first, so restore can install in increasing order. *)
          List.iter
            (fun (version, row) ->
              Codec.encode_int buf version;
              Codec.encode_row_opt buf row)
            (List.rev chain))
        chains)
    names;
  Buffer.contents buf

let of_snapshot ?intern data =
  let r = Codec.reader data in
  Codec.expect_raw r snapshot_magic;
  let version = Codec.decode_int r in
  if version < 0 then raise (Codec.Corrupt "negative database version");
  let t = create ?intern () in
  let ntables = Codec.decode_int r in
  if ntables < 0 then raise (Codec.Corrupt "negative table count");
  for _ = 1 to ntables do
    let schema = Codec.decode_schema r in
    let tbl = create_table t schema in
    let nkeys = Codec.decode_int r in
    if nkeys < 0 then raise (Codec.Corrupt "negative key count");
    for _ = 1 to nkeys do
      let key = Codec.decode_row r in
      let nversions = Codec.decode_int r in
      if nversions < 0 then raise (Codec.Corrupt "negative version count");
      for _ = 1 to nversions do
        let v = Codec.decode_int r in
        let row = Codec.decode_row_opt r in
        Table.install tbl ~key ~version:v row
      done
    done
  done;
  t.version <- version;
  t

let fingerprint t ~at =
  let row_hash table_name key row =
    let h = ref (Hashtbl.hash table_name) in
    let mix v = h := (!h * 31) + Value.hash v in
    Array.iter mix key;
    Array.iter mix row;
    !h land max_int
  in
  Hashtbl.fold
    (fun name tbl acc ->
      Table.fold_visible tbl ~at ~init:acc ~f:(fun acc key row ->
          acc lxor row_hash name key row))
    t.tables 0

