(* Tests for the MVCC storage engine. *)

open Storage

let vi x = Value.Int x
let vt s = Value.Text s

let accounts_schema =
  Schema.make ~name:"accounts"
    ~columns:[ ("id", Value.Tint); ("owner", Value.Ttext); ("balance", Value.Tint) ]
    ~indexes:[ "owner" ] ~key:[ "id" ] ()

let fresh_db () =
  let db = Database.create () in
  ignore (Database.create_table db accounts_schema);
  Database.load db "accounts"
    [
      [| vi 1; vt "alice"; vi 100 |];
      [| vi 2; vt "bob"; vi 200 |];
      [| vi 3; vt "alice"; vi 300 |];
    ];
  db

(* --- Value --- *)

let test_value_compare () =
  Alcotest.(check bool) "int order" true (Value.compare (vi 1) (vi 2) < 0);
  Alcotest.(check bool) "int/float numeric" true
    (Value.compare (vi 2) (Value.Float 1.5) > 0);
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (vi 0) < 0);
  Alcotest.(check bool) "text order" true (Value.compare (vt "a") (vt "b") < 0);
  Alcotest.(check bool) "equal ints" true (Value.equal (vi 5) (vi 5))

let test_value_types () =
  Alcotest.(check bool) "null matches any type" true (Value.matches Value.Tint Value.Null);
  Alcotest.(check bool) "int matches Tint" true (Value.matches Value.Tint (vi 1));
  Alcotest.(check bool) "text does not match Tint" false (Value.matches Value.Tint (vt "x"));
  Alcotest.(check int) "as_int" 7 (Value.as_int (vi 7));
  Alcotest.(check (float 1e-9)) "as_float coerces int" 7.0 (Value.as_float (vi 7));
  Alcotest.check_raises "as_int on text" (Invalid_argument "Value.as_int: \"x\"") (fun () ->
      ignore (Value.as_int (vt "x")))

(* --- Schema --- *)

let test_schema_validate () =
  let ok = Schema.validate_row accounts_schema [| vi 1; vt "x"; vi 5 |] in
  Alcotest.(check bool) "valid row" true (ok = Ok ());
  (match Schema.validate_row accounts_schema [| vi 1; vt "x" |] with
  | Error msg -> Alcotest.(check bool) "arity error mentions arity" true
                   (String.length msg > 0)
  | Ok () -> Alcotest.fail "arity mismatch accepted");
  match Schema.validate_row accounts_schema [| vi 1; vi 2; vi 3 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "type mismatch accepted"

let test_schema_rejects_nullable_key () =
  Alcotest.(check bool) "nullable key rejected" true
    (try
       ignore
         (Schema.make ~name:"bad" ~columns:[ ("id", Value.Tint) ] ~nullable:[ "id" ]
            ~key:[ "id" ] ());
       false
     with Invalid_argument _ -> true)

let test_schema_key_extraction () =
  let key = Schema.key_of_row accounts_schema [| vi 9; vt "z"; vi 0 |] in
  Alcotest.(check int) "key column" 9 (Value.as_int key.(0));
  Alcotest.(check int) "single-column key" 1 (Array.length key)

(* --- Expr --- *)

let test_expr_eval () =
  let row = [| vi 10; vt "alice"; vi 250 |] in
  let e = Expr.(col accounts_schema "balance" > i 100 && col accounts_schema "owner" = s "alice") in
  Alcotest.(check bool) "predicate true" true (Expr.eval_bool row e);
  let e2 = Expr.(col accounts_schema "balance" + i 50) in
  Alcotest.(check bool) "arithmetic" true (Expr.eval row e2 = vi 300)

let test_expr_null_semantics () =
  let row = [| Value.Null |] in
  Alcotest.(check bool) "null = null is false (SQL-style)" false
    (Expr.eval_bool row Expr.(Col 0 = Const Value.Null))

let test_expr_type_error () =
  let row = [| vt "x" |] in
  Alcotest.(check bool) "adding text raises" true
    (try
       ignore (Expr.eval row Expr.(Col 0 + i 1));
       false
     with Expr.Type_error _ -> true)

let test_expr_columns () =
  let e = Expr.(Col 2 > i 1 && Col 0 = Col 2) in
  Alcotest.(check (list int)) "referenced columns" [ 0; 2 ] (Expr.columns e)

(* --- Mvcc --- *)

let test_mvcc_snapshot_reads () =
  let m = Mvcc.create () in
  let k = [| vi 1 |] in
  Mvcc.install m k ~version:0 (Some [| vi 1; vt "a" |]);
  Mvcc.install m k ~version:5 (Some [| vi 1; vt "b" |]);
  Mvcc.install m k ~version:9 None;
  let owner at =
    match Mvcc.read m k ~at with Some row -> Value.as_text row.(1) | None -> "<gone>"
  in
  Alcotest.(check string) "v0..4 sees a" "a" (owner 3);
  Alcotest.(check string) "v5..8 sees b" "b" (owner 8);
  Alcotest.(check string) "v9 sees tombstone" "<gone>" (owner 9);
  Alcotest.(check (option int)) "latest version" (Some 9) (Mvcc.latest_version m k)

let test_mvcc_rejects_stale_install () =
  let m = Mvcc.create () in
  let k = [| vi 1 |] in
  Mvcc.install m k ~version:5 (Some [| vi 1 |]);
  Alcotest.(check bool) "non-monotonic install rejected" true
    (try
       Mvcc.install m k ~version:5 (Some [| vi 2 |]);
       false
     with Invalid_argument _ -> true)

let test_mvcc_gc () =
  let m = Mvcc.create () in
  let k = [| vi 1 |] in
  for v = 1 to 10 do
    Mvcc.install m k ~version:v (Some [| vi v |])
  done;
  let removed = Mvcc.gc m ~keep_after:7 in
  Alcotest.(check int) "dropped versions 1..6" 6 removed;
  Alcotest.(check int) "second pass drops nothing" 0 (Mvcc.gc m ~keep_after:7);
  Alcotest.(check int) "versions 7..10 kept" 4 (Mvcc.version_count m);
  (* Version 7 must survive: it is the visible row for snapshot 7. *)
  (match Mvcc.read m k ~at:7 with
  | Some row -> Alcotest.(check int) "snapshot 7 intact" 7 (Value.as_int row.(0))
  | None -> Alcotest.fail "gc destroyed visible version");
  match Mvcc.read m k ~at:10 with
  | Some row -> Alcotest.(check int) "latest intact" 10 (Value.as_int row.(0))
  | None -> Alcotest.fail "gc destroyed newest version"

let test_mvcc_ordered_iteration () =
  let m = Mvcc.create () in
  List.iter
    (fun i -> Mvcc.install m [| vi i |] ~version:0 (Some [| vi i |]))
    [ 5; 1; 3; 2; 4 ];
  let ordered () =
    let keys = ref [] in
    Mvcc.iter_keys_ordered m (fun k -> keys := Value.as_int k.(0) :: !keys);
    List.rev !keys
  in
  let range ?lo ?hi () =
    let keys = ref [] in
    Mvcc.iter_keys_range m ?lo ?hi (fun k -> keys := Value.as_int k.(0) :: !keys);
    List.rev !keys
  in
  Alcotest.(check (list int)) "ascending key order" [ 1; 2; 3; 4; 5 ] (ordered ());
  (* Keys installed after the first ordered access must show up in the
     next one, in order. *)
  List.iter
    (fun i -> Mvcc.install m [| vi i |] ~version:1 (Some [| vi i |]))
    [ 7; 0; 6 ];
  Mvcc.install m [| vi 3 |] ~version:1 None;
  Alcotest.(check (list int)) "new keys after a scan" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (ordered ());
  Alcotest.(check (list int)) "range over new keys" [ 5; 6 ]
    (range ~lo:[| vi 5 |] ~hi:[| vi 6 |] ())

(* Keys equal under [Key_order] share one chain: an integral float key
   finds, and extends, the row stored under the int of the same value. *)
let test_mvcc_int_float_keys () =
  let m = Mvcc.create () in
  let tag key ~at = Option.map (fun row -> Value.as_text row.(1)) (Mvcc.read m key ~at) in
  Mvcc.install m [| vi 3; vi 7 |] ~version:1 (Some [| vi 3; vt "int" |]);
  Alcotest.(check (option string)) "float key reads the int key's row" (Some "int")
    (tag [| Value.Float 3.0; vi 7 |] ~at:1);
  Mvcc.install m [| Value.Float 3.0; vi 7 |] ~version:2 (Some [| vi 3; vt "float" |]);
  Alcotest.(check int) "one chain" 1 (Mvcc.key_count m);
  Alcotest.(check (option string)) "int key reads the float install" (Some "float")
    (tag [| vi 3; vi 7 |] ~at:2)

(* --- Writeset --- *)

let entry table key op = { Writeset.ws_table = table; ws_key = [| vi key |]; ws_op = op }

let test_writeset_conflicts () =
  let a = Writeset.of_entries [ entry "t" 1 (Writeset.Put [| vi 1 |]) ] in
  let b = Writeset.of_entries [ entry "t" 1 Writeset.Delete ] in
  let c = Writeset.of_entries [ entry "t" 2 (Writeset.Put [| vi 2 |]) ] in
  let d = Writeset.of_entries [ entry "u" 1 (Writeset.Put [| vi 1 |]) ] in
  Alcotest.(check bool) "same key conflicts" true (Writeset.conflicts a b);
  Alcotest.(check bool) "different key ok" false (Writeset.conflicts a c);
  Alcotest.(check bool) "different table ok" false (Writeset.conflicts a d);
  Alcotest.(check bool) "empty never conflicts" false (Writeset.conflicts a Writeset.empty)

let test_writeset_supersede () =
  let ws =
    Writeset.of_entries
      [
        entry "t" 1 (Writeset.Put [| vi 1 |]);
        entry "t" 1 (Writeset.Put [| vi 99 |]);
        entry "t" 2 Writeset.Delete;
      ]
  in
  Alcotest.(check int) "distinct records" 2 (Writeset.cardinal ws);
  match List.find_opt (fun e -> Value.as_int e.Writeset.ws_key.(0) = 1) (Writeset.entries ws) with
  | Some { ws_op = Writeset.Put row; _ } ->
    Alcotest.(check int) "last write wins" 99 (Value.as_int row.(0))
  | _ -> Alcotest.fail "entry missing"

let test_writeset_keys () =
  let ws =
    Writeset.of_entries
      [
        entry "t" 1 (Writeset.Put [| vi 1 |]);
        entry "u" 1 Writeset.Delete;
        entry "t" 2 (Writeset.Put [| vi 2 |]);
      ]
  in
  let keys = Writeset.keys ws in
  Alcotest.(check int) "one conflict key per entry" 3 (List.length keys);
  List.iter
    (fun k -> Alcotest.(check bool) "expected key present" true (List.mem k keys))
    [ ("t", [| vi 1 |]); ("u", [| vi 1 |]); ("t", [| vi 2 |]) ]

let test_writeset_tables () =
  let ws =
    Writeset.of_entries
      [
        entry "b" 1 (Writeset.Put [| vi 1 |]);
        entry "a" 1 (Writeset.Put [| vi 1 |]);
        entry "b" 2 (Writeset.Put [| vi 2 |]);
      ]
  in
  Alcotest.(check (list string)) "tables in first-write order" [ "b"; "a" ]
    (Writeset.tables ws)

(* An [Int] key and the integral [Float] of the same value are one row
   in the store, so they must be one record to a writeset and one
   conflict id too, on the interned and the foreign path alike. *)
let test_writeset_int_float_keys () =
  let at key = { Writeset.ws_table = "t"; ws_key = [| key |]; ws_op = Writeset.Delete } in
  let int_ws = Writeset.of_entries [ at (vi 3) ]
  and float_ws = Writeset.of_entries [ at (Value.Float 3.0) ] in
  Alcotest.(check bool) "foreign conflicts" true (Writeset.conflicts int_ws float_ws);
  Alcotest.(check bool) "mem" true
    (Writeset.mem int_ws ~table:"t" ~key:[| Value.Float 3.0 |]);
  Alcotest.(check int) "one record" 1
    (Writeset.cardinal (Writeset.of_entries [ at (vi 3); at (Value.Float 3.0) ]));
  let intern = Intern.create () in
  Alcotest.(check int) "one conflict id"
    (Intern.id intern ~table:"t" ~key:[| vi 3 |])
    (Intern.id intern ~table:"t" ~key:[| Value.Float 3.0 |]);
  Alcotest.(check bool) "interned conflicts" true
    (Writeset.conflicts
       (Writeset.of_entries ~intern [ at (vi 3) ])
       (Writeset.of_entries ~intern [ at (Value.Float 3.0) ]))

(* --- Txn --- *)

let test_txn_read_your_writes () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  Alcotest.(check bool) "update succeeds" true
    (Txn.update_key txn ~table:"accounts" ~key:[| vi 1 |]
       ~set:[ ("balance", Expr.i 999) ]);
  (match Txn.get txn ~table:"accounts" ~key:[| vi 1 |] with
  | Some row -> Alcotest.(check int) "sees own write" 999 (Value.as_int row.(2))
  | None -> Alcotest.fail "row vanished");
  (* Another transaction does not see it before commit. *)
  let other = Txn.begin_ db in
  match Txn.get other ~table:"accounts" ~key:[| vi 1 |] with
  | Some row -> Alcotest.(check int) "isolation before commit" 100 (Value.as_int row.(2))
  | None -> Alcotest.fail "row vanished for other"

(* A point read scans the transaction's own write cells before the
   snapshot. It must find a buffered write under either spelling of its
   key, see a buffered delete as no row, and pass over a cell of the
   same key in another table. A read that falls through to the snapshot
   allocates nothing. *)
let test_txn_point_read_overlay () =
  let db = fresh_db () in
  let other =
    Schema.make ~name:"other" ~columns:[ ("id", Value.Tint); ("v", Value.Tint) ] ~key:[ "id" ] ()
  in
  ignore (Database.create_table db other);
  Database.load db "other" [ [| vi 2; vi 7 |] ];
  let txn = Txn.begin_ db in
  List.iter
    (fun id ->
      ignore
        (Txn.update_key txn ~table:"accounts" ~key:[| vi id |]
           ~set:[ ("balance", Expr.i (10 * id)) ]))
    [ 1; 2 ];
  ignore (Txn.delete_key txn ~table:"accounts" ~key:[| vi 3 |]);
  let column table key i = Option.map (fun row -> Value.as_int row.(i)) (Txn.get txn ~table ~key) in
  Alcotest.(check (option int)) "own write, float spelling" (Some 20)
    (column "accounts" [| Value.Float 2.0 |] 2);
  Alcotest.(check (option int)) "own delete" None (column "accounts" [| vi 3 |] 2);
  Alcotest.(check (option int)) "same key, other table" (Some 7) (column "other" [| vi 2 |] 1);
  let key = [| vi 2 |] in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Txn.get txn ~table:"other" ~key))
  done;
  Alcotest.(check (float 0.)) "read past the buffer allocates nothing" 0.
    (Gc.minor_words () -. before)

let test_txn_update_rejects_key_column () =
  (* Setting a key column would buffer a row whose key no longer
     matches the key it is filed under. *)
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  Alcotest.(check bool) "key column rejected" true
    (try
       ignore (Txn.update_key txn ~table:"accounts" ~key:[| vi 1 |] ~set:[ ("id", Expr.i 99) ]);
       false
     with Invalid_argument _ -> true);
  (match Txn.get txn ~table:"accounts" ~key:[| vi 1 |] with
  | Some row -> Alcotest.(check int) "row keeps its key" 1 (Value.as_int row.(0))
  | None -> Alcotest.fail "row vanished");
  Alcotest.(check bool) "nothing buffered" true (Writeset.is_empty (Txn.writeset txn))

let test_txn_commit_visibility () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  ignore (Txn.update_key txn ~table:"accounts" ~key:[| vi 1 |] ~set:[ ("balance", Expr.i 7) ]);
  (match Txn.commit_standalone txn with
  | Ok v -> Alcotest.(check int) "commit bumps version" 1 v
  | Error e -> Alcotest.fail e);
  let after = Txn.begin_ db in
  match Txn.get after ~table:"accounts" ~key:[| vi 1 |] with
  | Some row -> Alcotest.(check int) "new txn sees commit" 7 (Value.as_int row.(2))
  | None -> Alcotest.fail "row vanished"

let test_txn_first_committer_wins () =
  let db = fresh_db () in
  let t1 = Txn.begin_ db in
  let t2 = Txn.begin_ db in
  ignore (Txn.update_key t1 ~table:"accounts" ~key:[| vi 2 |] ~set:[ ("balance", Expr.i 1) ]);
  ignore (Txn.update_key t2 ~table:"accounts" ~key:[| vi 2 |] ~set:[ ("balance", Expr.i 2) ]);
  (match Txn.commit_standalone t1 with Ok _ -> () | Error e -> Alcotest.fail e);
  match Txn.commit_standalone t2 with
  | Ok _ -> Alcotest.fail "second concurrent writer must abort"
  | Error _ -> ()

let test_txn_snapshot_stability () =
  let db = fresh_db () in
  let reader = Txn.begin_ db in
  let writer = Txn.begin_ db in
  ignore
    (Txn.update_key writer ~table:"accounts" ~key:[| vi 1 |] ~set:[ ("balance", Expr.i 0) ]);
  ignore (Txn.commit_standalone writer);
  match Txn.get reader ~table:"accounts" ~key:[| vi 1 |] with
  | Some row ->
    Alcotest.(check int) "reader keeps its snapshot" 100 (Value.as_int row.(2))
  | None -> Alcotest.fail "row vanished"

let test_txn_insert_delete () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  (match Txn.insert txn ~table:"accounts" [| vi 4; vt "carol"; vi 50 |] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Txn.insert txn ~table:"accounts" [| vi 4; vt "dup"; vi 0 |] with
  | Ok () -> Alcotest.fail "duplicate insert accepted"
  | Error _ -> ());
  Alcotest.(check bool) "delete existing" true
    (Txn.delete_key txn ~table:"accounts" ~key:[| vi 2 |]);
  ignore (Txn.commit_standalone txn);
  let after = Txn.begin_ db in
  Alcotest.(check bool) "inserted row visible" true
    (Txn.get after ~table:"accounts" ~key:[| vi 4 |] <> None);
  Alcotest.(check bool) "deleted row gone" true
    (Txn.get after ~table:"accounts" ~key:[| vi 2 |] = None)

let test_txn_select_predicate_and_index () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  let rows =
    Txn.select txn ~table:"accounts" ~where:Expr.(col accounts_schema "owner" = s "alice") ()
  in
  Alcotest.(check int) "index lookup finds both alice rows" 2 (List.length rows);
  let rich =
    Txn.select txn ~table:"accounts" ~where:Expr.(col accounts_schema "balance" > i 150) ()
  in
  Alcotest.(check int) "scan predicate" 2 (List.length rich)

(* An indexed column answers an equality under the store's value
   equality, exactly like a scan of an unindexed twin: [Float 3.0]
   finds the row holding [Int 3]. Re-keying a row through its integral
   float key updates the same index entry rather than adding one. *)
let test_txn_index_value_equality () =
  let make name indexes =
    Schema.make ~name ~columns:[ ("id", Value.Tint); ("c", Value.Tint) ] ~indexes ~key:[ "id" ] ()
  in
  let indexed = make "indexed" [ "c" ] and plain = make "plain" [] in
  let db = Database.create () in
  List.iter
    (fun schema ->
      ignore (Database.create_table db schema);
      Database.load db schema.Schema.table_name [ [| vi 1; vi 3 |]; [| vi 2; vi 4 |] ])
    [ indexed; plain ];
  let ids table =
    let txn = Txn.begin_ db in
    Txn.select txn ~table ~where:Expr.(col indexed "c" = Const (Value.Float 3.0)) ()
    |> List.map (fun r -> Value.as_int r.(0))
  in
  Alcotest.(check (list int)) "unindexed scan" [ 1 ] (ids "plain");
  Alcotest.(check (list int)) "index lookup agrees with the scan" [ 1 ] (ids "indexed");
  Database.apply db
    (Writeset.of_entries
       [
         {
           Writeset.ws_table = "indexed";
           ws_key = [| Value.Float 1.0 |];
           ws_op = Writeset.Put [| Value.Float 1.0; vi 3 |];
         };
       ])
    ~version:1;
  Alcotest.(check int) "float-keyed rewrite is the same index entry" 2
    (Table.index_entries (Database.table db "indexed") ~column:1)

let test_txn_select_overlays_writes () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  ignore (Txn.delete_key txn ~table:"accounts" ~key:[| vi 1 |]);
  ignore (Txn.insert txn ~table:"accounts" [| vi 7; vt "alice"; vi 1 |]);
  let rows =
    Txn.select txn ~table:"accounts" ~where:Expr.(col accounts_schema "owner" = s "alice") ()
  in
  (* alice rows: id 3 from the base, id 7 from the buffer; id 1 deleted. *)
  let ids = List.map (fun r -> Value.as_int r.(0)) rows |> List.sort compare in
  Alcotest.(check (list int)) "overlay semantics" [ 3; 7 ] ids

let test_txn_read_only_writeset_empty () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  ignore (Txn.get txn ~table:"accounts" ~key:[| vi 1 |]);
  Alcotest.(check bool) "read-only" true (Txn.is_read_only txn);
  Alcotest.(check bool) "empty writeset" true (Writeset.is_empty (Txn.writeset txn))

let test_txn_cost_accounting () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  ignore (Txn.get txn ~table:"accounts" ~key:[| vi 1 |]);
  ignore (Txn.update_key txn ~table:"accounts" ~key:[| vi 1 |] ~set:[ ("balance", Expr.i 0) ]);
  let c = Txn.cost txn in
  Alcotest.(check bool) "reads counted" true (c.Txn.rows_read >= 2);
  Alcotest.(check int) "writes counted" 1 c.Txn.rows_written

(* --- Query --- *)

let test_query_exec_and_tableset () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  let stmts =
    [
      Query.Get { table = "accounts"; key = [| vi 1 |] };
      Query.Update_key
        { table = "accounts"; key = [| vi 1 |]; set = [ ("balance", Expr.i 1) ] };
    ]
  in
  Alcotest.(check (list string)) "table-set" [ "accounts" ] (Query.table_set stmts);
  List.iter
    (fun stmt ->
      match Query.exec txn stmt with
      | Query.Error msg, _ -> Alcotest.fail msg
      | (Query.Rows _ | Query.Affected _), _ -> ())
    stmts;
  Alcotest.(check bool) "writeset non-empty" false (Writeset.is_empty (Txn.writeset txn))

let test_query_put_upsert () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  (match Query.exec txn (Query.Put { table = "accounts"; row = [| vi 1; vt "x"; vi 5 |] }) with
  | Query.Affected 1, _ -> ()
  | _ -> Alcotest.fail "put over existing row failed");
  match Query.exec txn (Query.Put { table = "accounts"; row = [| vi 50; vt "y"; vi 5 |] }) with
  | Query.Affected 1, _ -> ()
  | _ -> Alcotest.fail "put of new row failed"

let orders_schema =
  Schema.make ~name:"ord"
    ~columns:[ ("o_id", Value.Tint); ("line", Value.Tint); ("item", Value.Tint) ]
    ~key:[ "o_id"; "line" ] ()

let items_schema =
  Schema.make ~name:"itm"
    ~columns:[ ("i_id", Value.Tint); ("title", Value.Ttext) ]
    ~key:[ "i_id" ] ()

let orders_db () =
  let db = Database.create () in
  ignore (Database.create_table db orders_schema);
  ignore (Database.create_table db items_schema);
  (* 10 orders x 3 lines; item = (order*7 + line) mod 5. *)
  Database.load db "ord"
    (List.concat_map
       (fun o -> List.init 3 (fun l -> [| vi o; vi l; vi (((o * 7) + l) mod 5) |]))
       (List.init 10 (fun i -> i)));
  Database.load db "itm" (List.init 5 (fun i -> [| vi i; vt (Printf.sprintf "book%d" i) |]));
  db

let test_txn_range_scan () =
  let db = orders_db () in
  let txn = Txn.begin_ db in
  (* Composite-key range: all lines of orders 3..5 (prefix bounds). *)
  let rows = Txn.range txn ~table:"ord" ~lo:[| vi 3 |] ~hi:[| vi 5; vi 99 |] () in
  Alcotest.(check int) "3 orders x 3 lines" 9 (List.length rows);
  let c = Txn.cost txn in
  Alcotest.(check bool) "only the range was examined" true (c.Txn.rows_scanned <= 10)

let test_txn_range_overlay () =
  let db = orders_db () in
  let txn = Txn.begin_ db in
  ignore (Txn.insert txn ~table:"ord" [| vi 4; vi 9; vi 0 |]);
  ignore (Txn.delete_key txn ~table:"ord" ~key:[| vi 4; vi 0 |]);
  let rows = Txn.range txn ~table:"ord" ~lo:[| vi 4 |] ~hi:[| vi 4; vi 99 |] () in
  (* order 4: lines 1,2 from base (0 deleted), line 9 inserted. *)
  let lines = List.map (fun r -> Value.as_int r.(1)) rows |> List.sort compare in
  Alcotest.(check (list int)) "range overlays buffer" [ 1; 2; 9 ] lines

(* A limited scan must count the transaction's own writes: an own
   insert below the base rows comes first, and an own delete does not
   cost a row of the limit. *)
let test_txn_limited_scan_sees_own_writes () =
  let db = Database.create () in
  ignore (Database.create_table db accounts_schema);
  Database.load db "accounts" (List.map (fun i -> [| vi i; vt "x"; vi 0 |]) [ 10; 11; 12; 13 ]);
  let ids rows = List.map (fun r -> Value.as_int r.(0)) rows in
  let inserted = Txn.begin_ db in
  ignore (Txn.insert inserted ~table:"accounts" [| vi 5; vt "x"; vi 0 |]);
  Alcotest.(check (list int)) "range: own insert in key order" [ 5; 10; 11 ]
    (ids (Txn.range inserted ~table:"accounts" ~lo:[| vi 0 |] ~limit:3 ()));
  let deleted = Txn.begin_ db in
  ignore (Txn.delete_key deleted ~table:"accounts" ~key:[| vi 10 |]);
  Alcotest.(check (list int)) "range: own delete keeps the limit" [ 11; 12; 13 ]
    (ids (Txn.range deleted ~table:"accounts" ~lo:[| vi 0 |] ~limit:3 ()));
  Alcotest.(check (list int)) "select: own delete keeps the limit" [ 11; 12; 13 ]
    (ids (Txn.select deleted ~table:"accounts" ~limit:3 ()))

let exec_rows txn stmt =
  match Query.exec txn stmt with
  | Query.Rows rows, _ -> rows
  | Query.Affected _, _ -> Alcotest.fail "expected rows"
  | Query.Error msg, _ -> Alcotest.fail msg

(* A predicate delete (TPC-W's Buy-confirm clears the cart this way)
   hides its rows from the deleting transaction and, after commit, from
   later snapshots, but not from a snapshot taken before the commit. *)
let test_query_delete_where () =
  let db = fresh_db () in
  let earlier = Txn.begin_ db in
  let txn = Txn.begin_ db in
  let ids t =
    List.sort compare (List.map (fun r -> Value.as_int r.(0)) (Txn.select t ~table:"accounts" ()))
  in
  (match
     Query.exec txn
       (Query.Delete
          { table = "accounts"; where = Some Expr.(col accounts_schema "owner" = s "alice") })
   with
  | Query.Affected n, _ -> Alcotest.(check int) "two rows deleted" 2 n
  | _ -> Alcotest.fail "expected an affected count");
  Alcotest.(check (list int)) "gone for the transaction" [ 2 ] (ids txn);
  ignore (Txn.commit_standalone txn);
  Alcotest.(check (list int)) "gone after commit" [ 2 ] (ids (Txn.begin_ db));
  Alcotest.(check (list int)) "earlier snapshot still sees them" [ 1; 2; 3 ] (ids earlier)

let test_query_group_count () =
  let db = orders_db () in
  let txn = Txn.begin_ db in
  let groups =
    exec_rows txn
      (Query.Group_count
         { table = "ord"; group_column = "item"; lo = None; hi = None; limit = 3 })
  in
  Alcotest.(check int) "top-3 groups" 3 (List.length groups);
  (* 30 rows over 5 items => 6 each; ties break by item value asc. *)
  (match groups with
  | [| v0; Value.Int c0 |] :: _ ->
    Alcotest.(check int) "top group count" 6 c0;
    Alcotest.(check bool) "tie broken by value" true (Value.equal v0 (vi 0))
  | _ -> Alcotest.fail "bad group rows");
  (* Counts are non-increasing. *)
  let counts = List.map (fun r -> Value.as_int r.(1)) groups in
  Alcotest.(check bool) "descending counts" true
    (List.sort (fun a b -> compare b a) counts = counts)

let test_query_join () =
  let db = orders_db () in
  let txn = Txn.begin_ db in
  let rows =
    exec_rows txn
      (Query.Join
         {
           left = "ord";
           right = "itm";
           left_col = "item";
           right_col = "i_id";
           left_where = Some Expr.(col orders_schema "o_id" = i 2);
           limit = None;
         })
  in
  Alcotest.(check int) "3 joined rows for order 2" 3 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "joined width" 5 (Array.length row);
      (* join key matches *)
      Alcotest.(check bool) "join key equal" true (Value.equal row.(2) row.(3));
      (* right payload is the matching title *)
      Alcotest.(check string) "title matches item"
        (Printf.sprintf "book%d" (Value.as_int row.(2)))
        (Value.as_text row.(4)))
    rows

let test_query_join_tableset () =
  let stmt =
    Query.Join
      {
        left = "ord"; right = "itm"; left_col = "item"; right_col = "i_id";
        left_where = None; limit = None;
      }
  in
  Alcotest.(check (list string)) "join contributes both tables" [ "ord"; "itm" ]
    (Query.table_set [ stmt ])

let test_database_apply_out_of_order_rejected () =
  let db = fresh_db () in
  let ws = Writeset.of_entries [ entry "accounts" 1 Writeset.Delete ] in
  Alcotest.(check bool) "non-sequential version rejected" true
    (try
       Database.apply db ws ~version:5;
       false
     with Invalid_argument _ -> true)

let balance_of db key =
  let txn = Txn.begin_ db in
  match Txn.get txn ~table:"accounts" ~key:[| vi key |] with
  | Some row -> Value.as_int row.(2)
  | None -> Alcotest.fail "row vanished"

let test_database_unpublished_invisible_until_publish () =
  let db = fresh_db () in
  let ws =
    Writeset.of_entries [ entry "accounts" 1 (Writeset.Put [| vi 1; vt "alice"; vi 999 |]) ]
  in
  Database.apply_unpublished db ws ~version:1;
  Alcotest.(check int) "version not advanced" 0 (Database.version db);
  Alcotest.(check int) "old snapshot sees old row" 100 (balance_of db 1);
  Database.publish db ~version:1;
  Alcotest.(check int) "version published" 1 (Database.version db);
  Alcotest.(check int) "new snapshot sees new row" 999 (balance_of db 1);
  Alcotest.(check bool) "already-published version rejected" true
    (try
       Database.apply_unpublished db ws ~version:1;
       false
     with Invalid_argument _ -> true)

let test_database_replay_is_redo_idempotent () =
  (* A parallel batch apply can be interrupted after installing only some
     of its writesets; recovery then replays the same versions from the
     certifier log. Re-installing must skip rows already at the target
     version instead of tripping the MVCC stale-install check. *)
  let db = fresh_db () in
  let partial =
    Writeset.of_entries [ entry "accounts" 1 (Writeset.Put [| vi 1; vt "alice"; vi 999 |]) ]
  in
  Database.apply_unpublished db partial ~version:1;
  (* Crash before publish: the replayed writeset carries both rows. *)
  let full =
    Writeset.of_entries
      [
        entry "accounts" 1 (Writeset.Put [| vi 1; vt "alice"; vi 999 |]);
        entry "accounts" 2 (Writeset.Put [| vi 2; vt "bob"; vi 777 |]);
      ]
  in
  Database.apply db full ~version:1;
  Alcotest.(check int) "version advanced by replay" 1 (Database.version db);
  Alcotest.(check int) "partially installed row intact" 999 (balance_of db 1);
  Alcotest.(check int) "missing row installed by replay" 777 (balance_of db 2)

(* A table's history as readers see it: the visible rows at every
   snapshot from 0 to [top]. *)
let history t ~top =
  List.init (top + 1) (fun at ->
      Table.fold_visible t ~at ~init:[] ~f:(fun acc key row -> (key, row) :: acc))

(* Redo at an installed version is a no-op, even when the replayed row
   differs: the chain, the version count and the secondary index (the
   [owner] column) all stay as the first install left them. *)
let test_database_reapply_leaves_state () =
  let db = fresh_db () in
  let accounts = Database.table db "accounts" in
  let put owner =
    Writeset.of_entries [ entry "accounts" 4 (Writeset.Put [| vi 4; vt owner; vi 1 |]) ]
  in
  let state () =
    ( history accounts ~top:2,
      Table.latest_version accounts ~key:[| vi 4 |],
      Table.version_count accounts,
      Table.index_entries accounts ~column:1 )
  in
  Database.apply_unpublished db (put "dave") ~version:1;
  let installed = state () in
  Database.apply_unpublished db (put "erin") ~version:1;
  Database.apply db (put "erin") ~version:1;
  Alcotest.(check bool) "history, version count and index unchanged" true
    (state () = installed);
  Alcotest.(check int) "no index entry for the replayed row" 0
    (List.length (Table.index_lookup accounts ~column:1 ~value:(vt "erin") ~at:1));
  Alcotest.(check bool) "install_if_newer skips the installed version" false
    (Table.install_if_newer accounts ~key:[| vi 4 |] ~version:1 None);
  Alcotest.(check bool) "install_if_newer skips an older version" false
    (Table.install_if_newer accounts ~key:[| vi 4 |] ~version:0 None);
  Alcotest.(check bool) "install_if_newer installs a newer version" true
    (Table.install_if_newer accounts ~key:[| vi 4 |] ~version:2 None)

let test_database_gc () =
  let db = fresh_db () in
  for _ = 1 to 5 do
    let txn = Txn.begin_ db in
    ignore
      (Txn.update_key txn ~table:"accounts" ~key:[| vi 1 |]
         ~set:[ ("balance", Expr.(col accounts_schema "balance" + i 1)) ]);
    ignore (Txn.commit_standalone txn)
  done;
  let before = Database.total_versions db in
  let removed = Database.gc db ~keep_after:(Database.version db) in
  Alcotest.(check bool) "gc removed versions" true (removed > 0);
  Alcotest.(check int) "version accounting consistent" before
    (Database.total_versions db + removed)

(* Model-based test: the MVCC store against a naive reference (an assoc
   list of (key, version, row-option) facts). Random install sequences at
   increasing versions; at every step, reads at random snapshots must
   agree. *)
let prop_mvcc_matches_model =
  let open QCheck in
  Test.make ~name:"mvcc agrees with reference model" ~count:60
    (list_of_size (Gen.int_range 0 25) (pair (int_range 0 9) (option (int_range 0 999))))
    (fun ops ->
      let store = Mvcc.create () in
      let model : (int * int * int option) list ref = ref [] in
      (* reference read: newest fact for the key with version <= at *)
      let model_read key ~at =
        let candidates =
          List.filter (fun (k, v, _) -> k = key && v <= at) !model
        in
        match List.sort (fun (_, a, _) (_, b, _) -> compare b a) candidates with
        | (_, _, row) :: _ -> row
        | [] -> None
      in
      let ok = ref true in
      List.iteri
        (fun version (key, payload) ->
          let version = version + 1 in
          let row = Option.map (fun p -> [| vi p |]) payload in
          Mvcc.install store [| vi key |] ~version row;
          model := (key, version, payload) :: !model;
          (* Check reads for every key at a few snapshots. *)
          for at = 0 to version do
            for k = 0 to 9 do
              let got =
                match Mvcc.read store [| vi k |] ~at with
                | Some r -> Some (Value.as_int r.(0))
                | None -> None
              in
              if got <> model_read k ~at then ok := false
            done
          done)
        ops;
      (* GC at a random horizon must preserve all reads above it. *)
      let n = List.length ops in
      if n > 2 then begin
        let horizon = n / 2 in
        ignore (Mvcc.gc store ~keep_after:horizon);
        for at = horizon to n do
          for k = 0 to 9 do
            let got =
              match Mvcc.read store [| vi k |] ~at with
              | Some r -> Some (Value.as_int r.(0))
              | None -> None
            in
            if got <> model_read k ~at then ok := false
          done
        done
      end;
      !ok)

(* Differential test for the ordered key directory: random interleavings
   of installs (fresh keys, existing keys, tombstones), gc and every
   ordered access, each checked against an oracle that sorts the list
   of keys written so far. *)
type dir_op =
  | Put of Mvcc.key * int option
  | Gc of int  (* horizon, as a percentage of the current version *)
  | Ordered
  | Range of Mvcc.key option * Mvcc.key option * int option  (* lo, hi, limit *)
  | Visible of int  (* snapshot, as a percentage between horizon and version *)
  | Latest

let dir_op_gen =
  let open QCheck.Gen in
  let key = map2 (fun a b -> [| vi a; vi b |]) (int_range 0 5) (int_range 0 5) in
  (* A bound is a whole key or a one-column prefix. *)
  let bound = option (oneof [ key; map (fun a -> [| vi a |]) (int_range 0 6) ]) in
  frequency
    [
      (6, map2 (fun k p -> Put (k, p)) key (option (int_range 0 99)));
      (1, map (fun pct -> Gc pct) (int_range 0 100));
      (1, return Ordered);
      (3, map3 (fun lo hi limit -> Range (lo, hi, limit)) bound bound (option (int_range 0 4)));
      (1, map (fun pct -> Visible pct) (int_range 0 100));
      (1, return Latest);
    ]

let print_dir_op =
  let key k = Format.asprintf "[%a]" (Format.pp_print_array ~pp_sep:Format.pp_print_space Value.pp) k in
  let opt f = function None -> "-" | Some x -> f x in
  function
  | Put (k, p) -> Printf.sprintf "put %s %s" (key k) (opt string_of_int p)
  | Gc pct -> Printf.sprintf "gc %d%%" pct
  | Ordered -> "ordered"
  | Range (lo, hi, limit) ->
    Printf.sprintf "range %s..%s limit %s" (opt key lo) (opt key hi) (opt string_of_int limit)
  | Visible pct -> Printf.sprintf "visible %d%%" pct
  | Latest -> "latest"

let prop_mvcc_ordered_directory =
  let open QCheck in
  Test.make ~name:"mvcc ordered directory agrees with sorted oracle" ~count:200
    (make ~print:(Print.list print_dir_op) Gen.(list_size (int_range 0 60) dir_op_gen))
    (fun ops ->
      let store = Mvcc.create () in
      (* Oracle: every key written so far, with its versions newest first. *)
      let chains : (Mvcc.key * (int * int option) list) list ref = ref [] in
      let version = ref 0 and horizon = ref 0 in
      let sorted () = List.sort (fun (a, _) (b, _) -> Mvcc.Key_order.compare a b) !chains in
      List.for_all
        (function
          | Put (key, payload) ->
            incr version;
            Mvcc.install store key ~version:!version (Option.map (fun p -> [| vi p |]) payload);
            let prior = Option.value ~default:[] (List.assoc_opt key !chains) in
            chains := (key, (!version, payload) :: prior) :: List.remove_assoc key !chains;
            true
          | Gc pct ->
            horizon := max !horizon (!version * pct / 100);
            ignore (Mvcc.gc store ~keep_after:!horizon);
            true
          | Ordered ->
            let got = ref [] in
            Mvcc.iter_keys_ordered store (fun k -> got := k :: !got);
            List.rev !got = List.map fst (sorted ())
          | Range (lo, hi, limit) ->
            (* Stop early the way [Table.scan_with]'s [limit] does: by
               raising out of the callback. *)
            let limit = Option.value limit ~default:max_int in
            let got = ref [] and n = ref 0 in
            (try
               Mvcc.iter_keys_range store ?lo ?hi (fun k ->
                   if !n >= limit then raise Exit;
                   incr n;
                   got := k :: !got)
             with Exit -> ());
            let cmp = Mvcc.Key_order.compare in
            let in_range k =
              Option.fold ~none:true ~some:(fun lo -> cmp k lo >= 0) lo
              && Option.fold ~none:true ~some:(fun hi -> cmp k hi <= 0) hi
            in
            List.rev !got
            = List.filteri (fun i _ -> i < limit) (List.filter in_range (List.map fst (sorted ())))
          | Visible pct ->
            let at = !horizon + ((!version - !horizon) * pct / 100) in
            let got =
              Mvcc.fold_visible store ~at ~init:[] ~f:(fun acc k row ->
                  (k, Value.as_int row.(0)) :: acc)
            in
            let visible (k, versions) =
              match List.find_opt (fun (v, _) -> v <= at) versions with
              | Some (_, Some p) -> Some (k, p)
              | Some (_, None) | None -> None
            in
            List.rev got = List.filter_map visible (sorted ())
          | Latest ->
            let got = ref [] in
            Mvcc.iter_keys_ordered store (fun k -> got := (k, Mvcc.latest_version store k) :: !got);
            List.rev !got
            = List.map (fun (k, versions) -> (k, Some (fst (List.hd versions)))) (sorted ()))
        ops)

(* Directories big enough to split chunks: a store loaded with a
   random prefix of the keys is scanned (building the directory from
   a sort), then takes the rest one install at a time, with ranges
   checked against the sorted oracle along the way. A copy taken
   mid-way must keep its own directory. *)
let prop_mvcc_directory_splits =
  let open QCheck in
  Test.make ~name:"mvcc ordered directory agrees with sorted oracle across chunk splits"
    ~count:30
    (make
       ~print:Print.(pair (list int) int)
       Gen.(pair (list_size (int_range 0 1500) (int_range 0 3000)) (int_range 0 100)))
    (fun (keys, loaded_pct) ->
      let keys = List.sort_uniq compare keys |> List.map (fun k -> (Hashtbl.hash k, k)) in
      let keys = List.map snd (List.sort compare keys) in
      let n_loaded = List.length keys * loaded_pct / 100 in
      let store = Mvcc.create () in
      let install k = Mvcc.install store [| vi (k / 100); vi (k mod 100) |] ~version:0 None in
      let ints iter =
        let got = ref [] in
        iter (fun k -> got := ((Value.as_int k.(0) * 100) + Value.as_int k.(1)) :: !got);
        List.rev !got
      in
      let range lo hi s =
        ints (Mvcc.iter_keys_range s ~lo:[| vi (lo / 100) |] ~hi:[| vi (hi / 100); vi 99 |])
      in
      let agrees s written =
        let sorted = List.sort compare written in
        let lo, hi = (700, 2099) in
        ints (Mvcc.iter_keys_ordered s) = sorted
        && range lo hi s = List.filter (fun k -> k >= lo && k <= hi) sorted
      in
      List.iteri (fun i k -> if i < n_loaded then install k) keys;
      let ok = ref (agrees store (List.filteri (fun i _ -> i < n_loaded) keys)) in
      let copy = ref None in
      List.iteri
        (fun i k ->
          if i >= n_loaded then begin
            install k;
            if i mod 97 = 0 then ok := !ok && agrees store (List.filteri (fun j _ -> j <= i) keys);
            if i = (n_loaded + List.length keys) / 2 then
              copy := Some (Mvcc.copy store, List.filteri (fun j _ -> j <= i) keys)
          end)
        keys;
      !ok
      && agrees store keys
      && match !copy with None -> true | Some (c, written) -> agrees c written)

(* Keys drawn from a small domain so that equal keys, including an
   [Int] against the integral [Float] of the same value, come up
   often. *)
let small_key_gen =
  let open QCheck.Gen in
  let value =
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map vi (int_range 0 2);
        map (fun i -> Value.Float (float_of_int i)) (int_range 0 2);
        map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_range 0 2);
        map vt (oneofl [ "a"; "b" ]);
      ]
  in
  array_size (int_range 0 4) value

let twin = function
  | Value.Int x -> Value.Float (float_of_int x)
  | Value.Float x when Float.is_integer x -> vi (int_of_float x)
  | v -> v

let prop_key_equal_agrees_with_compare =
  let open QCheck in
  let print k = Format.asprintf "[%a]" (Format.pp_print_array ~pp_sep:Format.pp_print_space Value.pp) k in
  Test.make ~name:"Key_hashed.equal is Key_order.compare = 0 and implies equal hashes"
    ~count:2000
    (make
       ~print:Print.(pair print print)
       Gen.(oneof [ pair small_key_gen small_key_gen; map (fun k -> (k, Array.map twin k)) small_key_gen ]))
    (fun (a, b) ->
      let eq = Mvcc.Key_hashed.equal a b in
      eq = (Mvcc.Key_order.compare a b = 0)
      && eq = Mvcc.Key_hashed.equal b a
      && ((not eq) || Mvcc.Key_hashed.hash a = Mvcc.Key_hashed.hash b))

(* Run-log key rendering agrees with key equality. Ints stay below
   2^53 in magnitude, where every int is exactly a float; the pool has
   two ints that "%g" printed alike, both zeros and NaNs of both signs,
   and texts that look like numbers or joined keys. *)
let prop_render_key_agrees_with_equal =
  let open QCheck in
  let ints =
    Gen.(
      oneof
        [
          int_range (-3) 3;
          int_range (1 - (1 lsl 53)) ((1 lsl 53) - 1);
          oneofl [ 123456789; 123456790 ];
        ])
  in
  let value =
    Gen.(
      oneof
        [
          return Value.Null;
          map vi ints;
          map (fun i -> Value.Float (float_of_int i)) ints;
          map
            (fun x -> Value.Float x)
            (oneof
               [ float; oneofl [ 0.5; -0.0; nan; -.nan; infinity; neg_infinity; 123456789.5 ] ]);
          map vt (oneofl [ ""; "a"; "a,b"; "\"a\",\"b\""; "1"; "nan" ]);
        ])
  in
  (* An equal key with its numbers swapped for their other forms. *)
  let twin = function
    | Value.Float x when Float.is_nan x || x = 0.0 -> Value.Float (-.x)
    | v -> twin v
  in
  let key = Gen.array_size (Gen.int_range 1 3) value in
  let print k = Format.asprintf "[%a]" (Format.pp_print_array ~pp_sep:Format.pp_print_space Value.pp) k in
  Test.make ~name:"rendered keys are equal iff Key_hashed.equal" ~count:2000
    (make
       ~print:Print.(pair print print)
       Gen.(oneof [ pair key key; map (fun k -> (k, Array.map twin k)) key ]))
    (fun (a, b) ->
      Mvcc.Key_hashed.equal a b = String.equal (Mvcc.render_key a) (Mvcc.render_key b))

(* The key path runs once per statement and once per replica apply, so
   it must not allocate: no closure per comparison and no option per
   probe. *)
let test_key_path_allocates_nothing () =
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. before
  in
  let key a b c = [| vi a; vi b; vi c |] in
  let store = Mvcc.create () in
  for i = 0 to 999 do
    Mvcc.install store (key (i / 100) (i / 10 mod 10) (i mod 10)) ~version:1 (Some [| vi i |])
  done;
  let a = key 3 4 5 and a' = key 3 4 5 and b = key 3 4 6 and absent = key 3 4 50 in
  List.iter
    (fun (name, f) -> Alcotest.(check (float 0.)) name 0. (words f))
    [
      ("Key_order.compare, equal keys", fun () -> Mvcc.Key_order.compare a a' = 0);
      ("Key_order.compare, distinct keys", fun () -> Mvcc.Key_order.compare a b = 0);
      ("Key_hashed.equal, equal keys", fun () -> Mvcc.Key_hashed.equal a a');
      ("Key_hashed.equal, distinct keys", fun () -> Mvcc.Key_hashed.equal a b);
      ("Mvcc.read, hit", fun () -> Mvcc.read store a ~at:1 <> None);
      ("Mvcc.read, miss", fun () -> Mvcc.read store absent ~at:1 <> None);
    ]

(* The chain table's other pins. A copy allocates a few words and
   shares both slot arrays with its donor. The first install after it
   copies the 16,384-slot chains array once, and every later install
   allocates only its 4-word version. A gc pass with nothing to drop
   allocates nothing and leaves the arrays shared. The empty key is
   refused: an empty array is what marks a free slot. *)
let test_mvcc_table_allocation () =
  let store = Mvcc.create () in
  for i = 0 to 9_999 do
    Mvcc.install store [| vi i |] ~version:1 (Some [| vi i |])
  done;
  Mvcc.install store [| vi 0 |] ~version:2 None;
  (* Words [f] allocates on either heap: an array this large goes
     straight to the major heap, which [Gc.minor_words] does not see. *)
  let words f =
    let _, promoted, major = Gc.counters () in
    let minor = Gc.minor_words () in
    let result = Sys.opaque_identity (f ()) in
    let minor' = Gc.minor_words () in
    let _, promoted', major' = Gc.counters () in
    (minor' -. minor +. (major' -. major) -. (promoted' -. promoted), result)
  in
  let copy_words, copy = words (fun () -> Mvcc.copy store) in
  Alcotest.(check bool)
    (Printf.sprintf "copy allocates %.0f words, at most 64" copy_words)
    true (copy_words <= 64.);
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    ignore (Sys.opaque_identity (Mvcc.gc copy ~keep_after:0))
  done;
  Alcotest.(check (float 0.)) "gc with nothing to drop" 0. (Gc.minor_words () -. before);
  (* 10,000 keys at a load of at most 3/4 take 16,384 slots. Keys and
     rows are built outside the measured calls. *)
  let row = Some [| vi 7 |] and k1 = [| vi 1 |] and k2 = [| vi 2 |] in
  let install key version = fst (words (fun () -> Mvcc.install copy key ~version row)) in
  Alcotest.(check (float 0.)) "first install after the copy" (16_385. +. 4.) (install k1 3);
  Alcotest.(check (float 0.)) "second install" 4. (install k2 4);
  Alcotest.(check (option int)) "the donor does not see the copy's versions" (Some 1)
    (Mvcc.latest_version store [| vi 1 |]);
  Alcotest.(check int) "gc then drops the copy's three old versions" 3
    (Mvcc.gc copy ~keep_after:4);
  Alcotest.check_raises "install of the empty key"
    (Invalid_argument "Mvcc.install: empty key")
    (fun () -> Mvcc.install store [||] ~version:3 None);
  Alcotest.check_raises "install_if_newer of the empty key"
    (Invalid_argument "Mvcc.install: empty key")
    (fun () -> ignore (Mvcc.install_if_newer store [||] ~version:3 None));
  Alcotest.(check (option int)) "the empty key reads as absent" None
    (Mvcc.latest_version store [||]);
  Alcotest.(check int) "no key was added" 10_000 (Mvcc.key_count store)

(* TPC-C's order_line keys (w, d, o, ol) at 4 warehouses and 3,000
   orders per district: 1.8M keys, each with a hash of its own. A
   base-31 sum of the columns gives 92,430 distinct values (5.1%), since
   (d, o) and (d + 1, o - 31) collide, and linear probing would turn
   those collisions into long runs. *)
let test_key_hash_spreads_order_lines () =
  let n = 4 * 10 * 3000 * 15 in
  let hashes = Array.make n 0 and i = ref 0 in
  for w = 1 to 4 do
    for d = 1 to 10 do
      for o = 0 to 2999 do
        for ol = 1 to 15 do
          hashes.(!i) <- Mvcc.Key_hashed.hash [| vi w; vi d; vi o; vi ol |];
          incr i
        done
      done
    done
  done;
  Array.sort Int.compare hashes;
  let distinct = ref 1 in
  for i = 1 to n - 1 do
    if hashes.(i) <> hashes.(i - 1) then incr distinct
  done;
  Alcotest.(check int) "distinct hashes" n !distinct

(* Model test for the chain table: random operations on a store and on
   the copies taken from it, each checked against a [Map] from key to
   chain. Keys come from a 10 x 10 grid of pairs, each column spelled
   as an [Int] or as the integral [Float] of the same value, so probe
   runs form, the larger stores double from 16 slots to 128, and equal
   keys come in both spellings. A copy shares both slot arrays with its
   donor, so [Table_copy] installs a brand-new key on the donor and then
   another on the copy, and checks both: each must first take arrays of
   its own, or the other's key shows up in its ordered walk. [Table_share]
   copies and writes nothing, so later installs and gc steps on the donor
   or the copy, and copies of that copy, meet arrays still shared (a
   state transfer from a replica that never wrote a table does this):
   each side must copy the chains before its first write-back, or the
   other's reads and gc counts go wrong. [Table_counts] checks the key
   count and the superseded count against folds over the model's
   chains, and reads every version of every chain back at its own
   version. Each walk goes through a
   throwaway copy, so no store here builds an ordered directory of its
   own (whose inserts would hide such a key; the directory has oracle
   tests above), and each walk also leaves the store sharing its
   arrays. *)
module Grid = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type grid_key = int * int * int  (* column a, column b, spelling: bit i set = column i a float *)

type table_op =
  | Table_install of int * grid_key * int option  (* store, key, payload ([None] deletes) *)
  | Table_install_if_newer of int * grid_key * int * int option  (* versions below the top *)
  | Table_read of int * grid_key * int  (* snapshot, percent of the top version *)
  | Table_latest of int * grid_key
  | Table_counts of int
  | Table_gc of int * int  (* horizon, percent of the top version *)
  | Table_copy of int * int * int  (* grid cells where the two new keys' searches start *)
  | Table_share of int  (* a copy with no write after it *)
  | Table_ordered of int

let table_op_gen =
  let open QCheck.Gen in
  let store = int_range 0 7 in
  let key = triple (int_range 0 9) (int_range 0 9) (int_range 0 3) in
  let payload = option (int_range 0 99) in
  frequency
    [
      (10, map3 (fun s k p -> Table_install (s, k, p)) store key payload);
      ( 3,
        map3
          (fun s (k, back) p -> Table_install_if_newer (s, k, back, p))
          store (pair key (int_range 0 3)) payload );
      (4, map3 (fun s k pct -> Table_read (s, k, pct)) store key (int_range 0 100));
      (1, map2 (fun s k -> Table_latest (s, k)) store key);
      (1, map (fun s -> Table_counts s) store);
      (1, map2 (fun s pct -> Table_gc (s, pct)) store (int_range 0 100));
      (1, map3 (fun s a b -> Table_copy (s, a, b)) store (int_range 0 99) (int_range 0 99));
      (1, map (fun s -> Table_share s) store);
      (1, map (fun s -> Table_ordered s) store);
    ]

let print_table_op =
  let key (a, b, spell) =
    let dot bit = if spell land bit = bit then ".0" else "" in
    Printf.sprintf "(%d%s,%d%s)" a (dot 1) b (dot 2)
  in
  let payload = function Some p -> string_of_int p | None -> "del" in
  function
  | Table_install (s, k, p) -> Printf.sprintf "#%d install %s=%s" s (key k) (payload p)
  | Table_install_if_newer (s, k, back, p) ->
    Printf.sprintf "#%d install_if_newer %s=%s at top-%d" s (key k) (payload p) back
  | Table_read (s, k, pct) -> Printf.sprintf "#%d read %s at %d%%" s (key k) pct
  | Table_latest (s, k) -> Printf.sprintf "#%d latest %s" s (key k)
  | Table_counts s -> Printf.sprintf "#%d counts" s
  | Table_gc (s, pct) -> Printf.sprintf "#%d gc %d%%" s pct
  | Table_copy (s, a, b) -> Printf.sprintf "#%d copy, new keys from cells %d and %d" s a b
  | Table_share s -> Printf.sprintf "#%d copy" s
  | Table_ordered s -> Printf.sprintf "#%d ordered" s

let prop_mvcc_table_matches_map =
  let open QCheck in
  Test.make ~name:"mvcc chain table and its copies agree with a map model" ~count:200
    (make ~print:(Print.list print_table_op) ~shrink:Shrink.list
       Gen.(list_size (int_range 0 300) table_op_gen))
    (fun ops ->
      let spelled (a, b, spell) =
        let num bit x = if spell land bit = bit then Value.Float (float_of_int x) else vi x in
        [| num 1 a; num 2 b |]
      in
      let as_int = function
        | Value.Int x -> x
        | Value.Float x -> int_of_float x
        | v -> Alcotest.failf "unexpected key column %s" (Value.to_string v)
      in
      (* Each store beside its model: key to chain, newest version first. *)
      let stores = ref [| (Mvcc.create (), ref Grid.empty) |] in
      let store s = !stores.(s mod Array.length !stores) in
      let top = ref 0 in
      let chain model (a, b, _) = Option.value ~default:[] (Grid.find_opt (a, b) !model) in
      let put model ((a, b, _) as k) version p =
        model := Grid.add (a, b) ((version, p) :: chain model k) !model
      in
      let install (m, model) k p =
        incr top;
        Mvcc.install m (spelled k) ~version:!top (Option.map (fun p -> [| vi p |]) p);
        put model k !top p
      in
      (* The first grid cell from [start] on whose key [model] lacks. *)
      let fresh model start =
        List.init 100 (fun i -> ((start + i) mod 100 / 10, (start + i) mod 10, i mod 4))
        |> List.find_opt (fun k -> chain model k = [])
      in
      let versions model = Grid.fold (fun _ c n -> n + List.length c) !model 0 in
      let superseded model = Grid.fold (fun _ c n -> n + List.length c - 1) !model 0 in
      let ordered (m, model) =
        let got = ref [] in
        Mvcc.iter_keys_ordered (Mvcc.copy m) (fun k -> got := (as_int k.(0), as_int k.(1)) :: !got);
        List.rev !got = List.map fst (Grid.bindings !model)
      in
      let rec trim keep_after = function
        | (v, p) :: rest when v > keep_after -> (v, p) :: trim keep_after rest
        | [] -> []
        | newest :: _ -> [ newest ]
      in
      List.for_all
        (fun op ->
          match op with
          | Table_install (s, k, p) ->
            install (store s) k p;
            true
          | Table_install_if_newer (s, k, back, p) ->
            let m, model = store s in
            let version = max 0 (!top - back) in
            let expected =
              match chain model k with (newest, _) :: _ -> newest < version | [] -> true
            in
            let got =
              Mvcc.install_if_newer m (spelled k) ~version (Option.map (fun p -> [| vi p |]) p)
            in
            if expected then put model k version p;
            got = expected
          | Table_read (s, k, pct) ->
            let m, model = store s in
            let at = !top * pct / 100 in
            let expected =
              Option.join (Option.map snd (List.find_opt (fun (v, _) -> v <= at) (chain model k)))
            in
            Option.map (fun row -> as_int row.(0)) (Mvcc.read m (spelled k) ~at) = expected
          | Table_latest (s, k) ->
            let m, model = store s in
            Mvcc.latest_version m (spelled k) = Option.map fst (List.nth_opt (chain model k) 0)
          | Table_counts s ->
            let m, model = store s in
            Mvcc.key_count m = Grid.cardinal !model
            && Mvcc.version_count m - Mvcc.key_count m = superseded model
            && Grid.for_all
                 (fun (a, b) chain ->
                   List.for_all
                     (fun (v, p) ->
                       Option.map (fun row -> as_int row.(0)) (Mvcc.read m [| vi a; vi b |] ~at:v)
                       = p)
                     chain)
                 !model
          | Table_gc (s, pct) ->
            let m, model = store s in
            let keep_after = !top * pct / 100 in
            let before = versions model in
            model := Grid.map (trim keep_after) !model;
            Mvcc.gc m ~keep_after = before - versions model
          | Table_copy (s, from_donor, from_copy) ->
            let ((m, model) as donor) = store s in
            let copy = (Mvcc.copy m, ref !model) in
            stores := Array.append !stores [| copy |];
            Option.iter (fun k -> install donor k (Some 0)) (fresh model from_donor);
            Option.iter (fun k -> install copy k (Some 1)) (fresh (snd copy) from_copy);
            ordered donor && ordered copy
          | Table_share s ->
            let m, model = store s in
            stores := Array.append !stores [| (Mvcc.copy m, ref !model) |];
            true
          | Table_ordered s -> ordered (store s))
        ops)

(* The directory is walked in place, so a walk's callback may add
   versions to keys it visits but must not install a new key. *)
let test_mvcc_walk_rejects_install () =
  let m = Mvcc.create () in
  List.iter (fun i -> Mvcc.install m [| vi i |] ~version:1 (Some [| vi i |])) [ 1; 2; 3 ];
  Mvcc.iter_keys_ordered m (fun k -> Mvcc.install m k ~version:2 None);
  Alcotest.(check int) "new versions of visited keys are allowed" 6 (Mvcc.version_count m);
  Alcotest.check_raises "a new key raises"
    (Invalid_argument "Mvcc: a key was installed during an ordered walk of its store")
    (fun () ->
      Mvcc.iter_keys_range m ~lo:[| vi 2 |] (fun k ->
          Mvcc.install m [| vi (10 + Value.as_int k.(0)) |] ~version:3 None));
  let keys = ref [] in
  Mvcc.iter_keys_ordered m (fun k -> keys := Value.as_int k.(0) :: !keys);
  Alcotest.(check (list int)) "the installed key is in the directory" [ 1; 2; 3; 12 ]
    (List.rev !keys)

(* --- Wire size and fingerprints --- *)

(* [writeset_bytes] prices every refresh, push and request message, so
   it sets virtual time: this pins its value on a fixed writeset. *)
let test_codec_writeset_wire_size () =
  let ws =
    Writeset.of_entries
      [
        entry "t" 1 (Writeset.Put [| vi 1; vt "x" |]);
        entry "u" 2 Writeset.Delete;
        entry "t" 3 (Writeset.Put [| vi 3; Value.Null |]);
      ]
  in
  Alcotest.(check int) "modelled wire size" 134 (Codec.writeset_bytes ws)

let test_fingerprint_detects_divergence () =
  let a = fresh_db () and b = fresh_db () in
  Alcotest.(check int) "identical databases agree" (Database.fingerprint a ~at:0)
    (Database.fingerprint b ~at:0);
  let txn = Txn.begin_ b in
  ignore (Txn.update_key txn ~table:"accounts" ~key:[| vi 1 |] ~set:[ ("balance", Expr.i 1) ]);
  ignore (Txn.commit_standalone txn);
  Alcotest.(check bool) "divergent databases differ" true
    (Database.fingerprint a ~at:0 <> Database.fingerprint b ~at:1);
  (* The same values in other columns are a different state. *)
  let pairs_schema =
    Schema.make ~name:"pairs"
      ~columns:[ ("id", Value.Tint); ("x", Value.Tint); ("y", Value.Tint) ]
      ~nullable:[ "x"; "y" ] ~key:[ "id" ] ()
  in
  let fingerprint_of row =
    let db = Database.create () in
    ignore (Database.create_table db pairs_schema);
    Database.load db "pairs" [ row ];
    Database.fingerprint db ~at:0
  in
  Alcotest.(check bool) "swapped columns differ" true
    (fingerprint_of [| vi 1; vi 1; vi 32 |] <> fingerprint_of [| vi 1; vi 32; vi 1 |]);
  Alcotest.(check bool) "a value moved between columns differs" true
    (fingerprint_of [| vi 1; vi 7; Value.Null |] <> fingerprint_of [| vi 1; Value.Null; vi 7 |])

(* Property: random interleavings of single-key standalone transactions
   preserve the sum under commit-or-abort (atomicity). *)
let prop_txn_atomic_transfer =
  QCheck.Test.make ~name:"standalone transfers conserve total balance" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_range 1 3) (int_range 1 3)))
    (fun transfers ->
      let db = fresh_db () in
      let total db =
        let txn = Txn.begin_ db in
        List.fold_left
          (fun acc id ->
            match Txn.get txn ~table:"accounts" ~key:[| vi id |] with
            | Some row -> acc + Value.as_int row.(2)
            | None -> acc)
          0 [ 1; 2; 3 ]
      in
      let before = total db in
      List.iter
        (fun (a, b) ->
          let txn = Txn.begin_ db in
          ignore
            (Txn.update_key txn ~table:"accounts" ~key:[| vi a |]
               ~set:[ ("balance", Expr.(Col 2 - i 10)) ]);
          ignore
            (Txn.update_key txn ~table:"accounts" ~key:[| vi b |]
               ~set:[ ("balance", Expr.(Col 2 + i 10)) ]);
          ignore (Txn.commit_standalone txn))
        transfers;
      total db = before)

(* Differential: a transaction's writeset, built from its write buffer
   and the ids resolved at buffer time, equals [Writeset.of_entries]
   over the same writes; and the id-probing early-certification
   predicates (a buffer against pending refresh keys, a refresh against
   a buffer) decide exactly as [Writeset.conflicts] does. Writes hit
   overlapping keys in two tables; refresh writesets mix int and
   integral-float keys, interned and foreign. *)
type txn_op =
  | Insert of string * int
  | Put_row of string * int
  | Update of string * int
  | Delete_key of string * int

let txn_tables = [ "accounts"; "audit" ]

let txn_op_gen =
  let open QCheck.Gen in
  let target = pair (oneofl txn_tables) (int_range 1 5) in
  oneof
    [
      map (fun (t, k) -> Insert (t, k)) target;
      map (fun (t, k) -> Put_row (t, k)) target;
      map (fun (t, k) -> Update (t, k)) target;
      map (fun (t, k) -> Delete_key (t, k)) target;
    ]

let print_txn_op = function
  | Insert (t, k) -> Printf.sprintf "insert %s %d" t k
  | Put_row (t, k) -> Printf.sprintf "put %s %d" t k
  | Update (t, k) -> Printf.sprintf "update %s %d" t k
  | Delete_key (t, k) -> Printf.sprintf "delete %s %d" t k

(* A refresh writeset: (table, key, as an integral float?) triples, and
   whether it is built against the group's intern table. *)
let refresh_gen =
  QCheck.Gen.(
    pair (list_size (int_range 0 4) (triple (oneofl txn_tables) (int_range 1 7) bool)) bool)

let print_refresh (keys, interned) =
  Printf.sprintf "%s{%s}"
    (if interned then "interned" else "foreign")
    (String.concat ","
       (List.map
          (fun (t, k, f) -> Printf.sprintf "%s:%d%s" t k (if f then ".0" else ""))
          keys))

let prop_txn_writeset_matches_of_entries =
  let open QCheck in
  Test.make ~name:"txn writeset and id probes agree with of_entries and conflicts" ~count:200
    (make
       ~print:(fun (ops, refreshes) ->
         String.concat "; " (List.map print_txn_op ops)
         ^ " | "
         ^ String.concat "; " (List.map print_refresh refreshes))
       Gen.(
         pair (list_size (int_range 0 25) txn_op_gen) (list_size (int_range 0 4) refresh_gen)))
    (fun (ops, refreshes) ->
      let db = fresh_db () in
      ignore (Database.create_table db { accounts_schema with Schema.table_name = "audit" });
      Database.load db "audit"
        [ [| vi 2; vt "carol"; vi 20 |]; [| vi 4; vt "dan"; vi 40 |] ];
      let intern = Database.intern db in
      let txn = Txn.begin_ db in
      let written = ref [] in
      let record table k op =
        written := { Writeset.ws_table = table; ws_key = [| vi k |]; ws_op = op } :: !written
      in
      let current table k = Option.get (Txn.get txn ~table ~key:[| vi k |]) in
      List.iter
        (function
          | Insert (table, k) ->
            if Result.is_ok (Txn.insert txn ~table [| vi k; vt "new"; vi k |]) then
              record table k (Writeset.Put (current table k))
          | Put_row (table, k) ->
            ignore (Txn.put txn ~table [| vi k; vt "put"; vi (10 * k) |]);
            record table k (Writeset.Put (current table k))
          | Update (table, k) ->
            if
              Txn.update_key txn ~table ~key:[| vi k |]
                ~set:[ ("balance", Expr.(Col 2 + i 1)) ]
            then record table k (Writeset.Put (current table k))
          | Delete_key (table, k) ->
            if Txn.delete_key txn ~table ~key:[| vi k |] then record table k Writeset.Delete)
        ops;
      let ws = Txn.writeset txn in
      let oracle = Writeset.of_entries ~intern (List.rev !written) in
      let refresh_ws (keys, interned) =
        let entries =
          List.map
            (fun (table, k, as_float) ->
              let key = if as_float then Value.Float (float_of_int k) else vi k in
              { Writeset.ws_table = table; ws_key = [| key |]; ws_op = Writeset.Delete })
            keys
        in
        if interned then Writeset.of_entries ~intern entries else Writeset.of_entries entries
      in
      let refreshes = List.map refresh_ws refreshes in
      let pending = Util.Tables.Itbl.create 16 in
      List.iter
        (fun r ->
          Array.iter
            (fun kid -> Util.Tables.Itbl.replace pending kid ())
            (Writeset.cids r ~intern))
        refreshes;
      Writeset.entries ws = Writeset.entries oracle
      && Writeset.cids ws ~intern = Writeset.cids oracle ~intern
      && Writeset.cardinal ws = Writeset.cardinal oracle
      && Txn.exists_write_id txn (Util.Tables.Itbl.mem pending)
         = List.exists (Writeset.conflicts ws) refreshes
      && List.for_all
           (fun r ->
             Array.exists (Txn.writes_id txn) (Writeset.cids r ~intern)
             = ((not (Txn.is_read_only txn)) && Writeset.conflicts ws r))
           refreshes)

(* --- Database.copy differential test ---

   Two indexed tables, one with an int key and one with a composite
   key. Writes carry ints and integral floats mixed, in keys and in the
   indexed column: they are one key and one index value to the store. *)

let copy_schemas =
  [
    Schema.make ~name:"flat"
      ~columns:[ ("id", Value.Tint); ("tag", Value.Tint); ("v", Value.Tint) ]
      ~indexes:[ "tag" ] ~key:[ "id" ] ();
    Schema.make ~name:"pair"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint); ("tag", Value.Tint); ("v", Value.Tint) ]
      ~indexes:[ "tag" ] ~key:[ "a"; "b" ] ();
  ]

let copy_fresh () =
  let db = Database.create () in
  List.iter (fun schema -> ignore (Database.create_table db schema)) copy_schemas;
  Database.load db "flat" (List.init 8 (fun i -> [| vi i; vi (i mod 3); vi 0 |]));
  Database.load db "pair"
    (List.concat
       (List.init 3 (fun a -> List.init 3 (fun b -> [| vi a; vi b; vi (a * b mod 3); vi 0 |]))));
  db

type copy_write = {
  composite : bool;  (* the "pair" table *)
  k : int * int;
  as_float : bool;  (* key and tag as integral floats *)
  tag : int option;  (* [None] deletes *)
}

type copy_op =
  | Write of copy_write list
  | Vacuum of int  (* gc horizon, percent of the current version *)

let copy_write_gen =
  QCheck.Gen.(
    map
      (fun (composite, k, as_float, tag) -> { composite; k; as_float; tag })
      (quad bool (pair (int_range 0 9) (int_range 0 3)) bool (option (int_range 0 3))))

(* Each step runs on the copy and its fresh twin ([true]) or on the
   original and its own fresh twin ([false]). *)
let copy_step_gen =
  QCheck.Gen.(
    pair bool
      (frequency
         [
           (4, map (fun ws -> Write ws) (list_size (int_range 1 3) copy_write_gen));
           (1, map (fun pct -> Vacuum pct) (int_range 0 100));
         ]))

let print_copy_step (on_copy, op) =
  let side = if on_copy then "copy" else "orig" in
  match op with
  | Vacuum pct -> Printf.sprintf "%s:gc%d%%" side pct
  | Write ws ->
    Printf.sprintf "%s:{%s}" side
      (String.concat ","
         (List.map
            (fun w ->
              Printf.sprintf "%s(%d,%d)%s=%s"
                (if w.composite then "pair" else "flat")
                (fst w.k) (snd w.k)
                (if w.as_float then ".0" else "")
                (match w.tag with Some t -> string_of_int t | None -> "del"))
            ws))

let copy_apply db = function
  | Vacuum pct -> ignore (Database.gc db ~keep_after:(Database.version db * pct / 100))
  | Write ws ->
    let version = Database.version db + 1 in
    let entry w =
      let num x = if w.as_float then Value.Float (float_of_int x) else vi x in
      let a, b = w.k in
      let key = if w.composite then [| num a; num b |] else [| num a |] in
      let op =
        match w.tag with
        | None -> Writeset.Delete
        | Some tag -> Writeset.Put (Array.append key [| num tag; vi version |])
      in
      { Writeset.ws_table = (if w.composite then "pair" else "flat"); ws_key = key; ws_op = op }
    in
    Database.apply db (Writeset.of_entries (List.map entry ws)) ~version

(* Everything a reader can see of a database, at a few snapshots. *)
let copy_observe db =
  let top = Database.version db in
  let ats = List.sort_uniq compare [ 0; top / 2; top ] in
  let ranges =
    [
      (Some [| vi 2 |], Some [| vi 6 |]);
      (Some [| Value.Float 1.0 |], None);
      (None, Some [| vi 1; vi 2 |]);
    ]
  in
  let table name =
    let t = Database.table db name in
    let column = (Table.schema t).Schema.indexed.(0) in
    ( history t ~top,
      Table.version_count t,
      Table.index_entries t ~column,
      List.map
        (fun at ->
          ( List.map (fun (lo, hi) -> Table.range_scan t ~at ?lo ?hi ()) ranges,
            List.concat_map
              (fun tag ->
                [
                  Table.index_lookup t ~column ~value:(vi tag) ~at;
                  Table.index_lookup t ~column ~value:(Value.Float (float_of_int tag)) ~at;
                ])
              [ 0; 1; 2; 3 ] ))
        ats )
  in
  ( top,
    List.map (fun at -> Database.fingerprint db ~at) ats,
    Database.total_versions db,
    List.map table [ "flat"; "pair" ] )

let prop_database_copy_is_independent =
  let open QCheck in
  Test.make ~name:"copy agrees with a fresh load and leaves the original alone" ~count:200
    (make
       ~print:(fun (scan, steps) ->
         Printf.sprintf "scan before copy=%b; %s" scan
           (String.concat "; " (List.map print_copy_step steps)))
       Gen.(pair bool (list_size (int_range 0 20) copy_step_gen)))
    (fun (scan_before_copy, steps) ->
      let a = copy_fresh () and a_twin = copy_fresh () in
      (* A fingerprint walks the ordered directory, building it. *)
      if scan_before_copy then ignore (Database.fingerprint a ~at:0);
      let b = Database.copy a and c = copy_fresh () in
      List.iter
        (fun (on_copy, op) ->
          if on_copy then (copy_apply b op; copy_apply c op)
          else (copy_apply a op; copy_apply a_twin op))
        steps;
      copy_observe b = copy_observe c && copy_observe a = copy_observe a_twin)

(* Replicas of the paper's micro-benchmark hold 40 tables and write to
   only some of them. Copies share every chain array until they write
   to it, so 8 copies of a 40-table database cost a few words per table
   each, and writing to 10 tables on every copy adds those 80 arrays of
   2,048 chains (1,000 keys at a load of at most 3/4) and the new
   versions, nothing for the 30 tables never written. *)
let test_database_copies_share_unwritten_tables () =
  let db = Database.create () in
  let name i = Printf.sprintf "t%02d" i in
  for i = 0 to 39 do
    let schema =
      Schema.make ~name:(name i) ~columns:[ ("id", Value.Tint); ("v", Value.Tint) ]
        ~key:[ "id" ] ()
    in
    ignore (Database.create_table db schema);
    Database.load db (name i) (List.init 1_000 (fun k -> [| vi k; vi 0 |]))
  done;
  let words x = Obj.reachable_words (Obj.repr x) in
  let alone = words db in
  let copies = List.init 8 (fun _ -> Database.copy db) in
  let shared = words (db, copies) in
  Alcotest.(check bool)
    (Printf.sprintf "8 copies add %d words, at most 64 per table" (shared - alone))
    true
    (shared - alone <= 8 * 40 * 64);
  let ws =
    Writeset.of_entries (List.init 10 (fun i -> entry (name (4 * i)) 7 (Writeset.Put [| vi 7; vi 1 |])))
  in
  List.iter (fun copy -> Database.apply copy ws ~version:1) copies;
  let written = words (db, copies) in
  (* Per copy and written table: the chains array, a 4-word version
     and its [Some]; the rows are shared. *)
  let arrays = 8 * 10 * (2_048 + 1) in
  Alcotest.(check bool)
    (Printf.sprintf "writes add %d words: %d of chain arrays, at most 16 more per table"
       (written - shared) arrays)
    true
    (written - shared >= arrays && written - shared <= arrays + (8 * 10 * 16));
  Alcotest.(check int) "the original is untouched" 0 (Database.total_versions db - 40_000)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "storage.value",
      [
        Alcotest.test_case "compare" `Quick test_value_compare;
        Alcotest.test_case "types" `Quick test_value_types;
      ] );
    ( "storage.schema",
      [
        Alcotest.test_case "validate" `Quick test_schema_validate;
        Alcotest.test_case "nullable key rejected" `Quick test_schema_rejects_nullable_key;
        Alcotest.test_case "key extraction" `Quick test_schema_key_extraction;
      ] );
    ( "storage.expr",
      [
        Alcotest.test_case "eval" `Quick test_expr_eval;
        Alcotest.test_case "null semantics" `Quick test_expr_null_semantics;
        Alcotest.test_case "type errors" `Quick test_expr_type_error;
        Alcotest.test_case "columns" `Quick test_expr_columns;
      ] );
    ( "storage.mvcc",
      [
        Alcotest.test_case "snapshot reads" `Quick test_mvcc_snapshot_reads;
        Alcotest.test_case "stale install rejected" `Quick test_mvcc_rejects_stale_install;
        Alcotest.test_case "gc" `Quick test_mvcc_gc;
        Alcotest.test_case "ordered iteration" `Quick test_mvcc_ordered_iteration;
        Alcotest.test_case "int and float keys share a chain" `Quick test_mvcc_int_float_keys;
        Alcotest.test_case "key path allocates nothing" `Quick test_key_path_allocates_nothing;
        Alcotest.test_case "walk rejects a new key" `Quick test_mvcc_walk_rejects_install;
        Alcotest.test_case "copy and gc allocation, empty key" `Quick test_mvcc_table_allocation;
        Alcotest.test_case "order_line keys hash apart" `Quick test_key_hash_spreads_order_lines;
      ]
      @ qsuite
          [
            prop_mvcc_matches_model;
            prop_mvcc_ordered_directory;
            prop_mvcc_directory_splits;
            prop_key_equal_agrees_with_compare;
            prop_render_key_agrees_with_equal;
            prop_mvcc_table_matches_map;
          ] );
    ( "storage.writeset",
      [
        Alcotest.test_case "conflicts" `Quick test_writeset_conflicts;
        Alcotest.test_case "supersede" `Quick test_writeset_supersede;
        Alcotest.test_case "tables" `Quick test_writeset_tables;
        Alcotest.test_case "conflict keys" `Quick test_writeset_keys;
        Alcotest.test_case "int and float keys are one record" `Quick
          test_writeset_int_float_keys;
      ] );
    ( "storage.txn",
      [
        Alcotest.test_case "read your writes" `Quick test_txn_read_your_writes;
        Alcotest.test_case "point read overlays the write buffer" `Quick
          test_txn_point_read_overlay;
        Alcotest.test_case "update rejects a key column" `Quick
          test_txn_update_rejects_key_column;
        Alcotest.test_case "commit visibility" `Quick test_txn_commit_visibility;
        Alcotest.test_case "first committer wins" `Quick test_txn_first_committer_wins;
        Alcotest.test_case "snapshot stability" `Quick test_txn_snapshot_stability;
        Alcotest.test_case "insert and delete" `Quick test_txn_insert_delete;
        Alcotest.test_case "select with index" `Quick test_txn_select_predicate_and_index;
        Alcotest.test_case "index uses value equality" `Quick test_txn_index_value_equality;
        Alcotest.test_case "select overlays writes" `Quick test_txn_select_overlays_writes;
        Alcotest.test_case "read-only writeset empty" `Quick test_txn_read_only_writeset_empty;
        Alcotest.test_case "cost accounting" `Quick test_txn_cost_accounting;
      ]
      @ qsuite [ prop_txn_atomic_transfer; prop_txn_writeset_matches_of_entries ] );
    ( "storage.query",
      [
        Alcotest.test_case "exec and table-set" `Quick test_query_exec_and_tableset;
        Alcotest.test_case "put upsert" `Quick test_query_put_upsert;
        Alcotest.test_case "range scan" `Quick test_txn_range_scan;
        Alcotest.test_case "range overlays writes" `Quick test_txn_range_overlay;
        Alcotest.test_case "limited scans see own writes" `Quick
          test_txn_limited_scan_sees_own_writes;
        Alcotest.test_case "delete with predicate" `Quick test_query_delete_where;
        Alcotest.test_case "group count" `Quick test_query_group_count;
        Alcotest.test_case "join" `Quick test_query_join;
        Alcotest.test_case "join table-set" `Quick test_query_join_tableset;
      ] );
    ( "storage.database",
      [
        Alcotest.test_case "out-of-order apply rejected" `Quick
          test_database_apply_out_of_order_rejected;
        Alcotest.test_case "unpublished invisible until publish" `Quick
          test_database_unpublished_invisible_until_publish;
        Alcotest.test_case "replay is redo-idempotent" `Quick
          test_database_replay_is_redo_idempotent;
        Alcotest.test_case "re-apply leaves chain and index" `Quick
          test_database_reapply_leaves_state;
        Alcotest.test_case "gc accounting" `Quick test_database_gc;
        Alcotest.test_case "copies share unwritten tables" `Quick
          test_database_copies_share_unwritten_tables;
      ]
      @ qsuite [ prop_database_copy_is_independent ] );
    ( "storage.codec",
      [
        Alcotest.test_case "writeset wire size" `Quick test_codec_writeset_wire_size;
        Alcotest.test_case "fingerprint divergence" `Quick test_fingerprint_detects_divergence;
      ] );
  ]
