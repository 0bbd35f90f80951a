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
    (Expr.eval_bool row Expr.(Col 0 = Const Value.Null));
  Alcotest.(check bool) "is_null" true (Expr.eval_bool row (Expr.Is_null (Expr.Col 0)))

let test_expr_type_error () =
  let row = [| vt "x" |] in
  Alcotest.(check bool) "adding text raises" true
    (try
       ignore (Expr.eval row Expr.(Col 0 + i 1));
       false
     with Expr.Type_error _ -> true)

let test_expr_like () =
  let cases =
    [
      ("abc", "abc", true);
      ("a%", "abc", true);
      ("%c", "abc", true);
      ("%b%", "abc", true);
      ("a_c", "abc", true);
      ("a_c", "abbc", false);
      ("%", "", true);
      ("_", "", false);
      ("", "", true);
      ("", "x", false);
      ("a%b%c", "axxbyyc", true);
      ("a%b%c", "acb", false);
      ("%%", "anything", true);
    ]
  in
  List.iter
    (fun (pattern, s, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "LIKE %S on %S" pattern s)
        expected
        (Expr.like_match ~pattern s))
    cases;
  (* Non-text values never match. *)
  Alcotest.(check bool) "int never matches" false
    (Expr.eval_bool [| vi 1 |] (Expr.Like (Expr.Col 0, "%")));
  Alcotest.(check bool) "null never matches" false
    (Expr.eval_bool [| Value.Null |] (Expr.Like (Expr.Col 0, "%")))

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

let test_txn_update_where () =
  let db = fresh_db () in
  let txn = Txn.begin_ db in
  let n =
    Txn.update txn ~table:"accounts"
      ~where:Expr.(col accounts_schema "owner" = s "alice")
      ~set:[ ("balance", Expr.(col accounts_schema "balance" + i 1)) ]
      ()
  in
  Alcotest.(check int) "two rows updated" 2 n;
  ignore (Txn.commit_standalone txn);
  let after = Txn.begin_ db in
  match Txn.get after ~table:"accounts" ~key:[| vi 3 |] with
  | Some row -> Alcotest.(check int) "updated through predicate" 301 (Value.as_int row.(2))
  | None -> Alcotest.fail "row vanished"

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

let exec_rows txn stmt =
  match Query.exec txn stmt with
  | Query.Rows rows, _ -> rows
  | Query.Affected _, _ -> Alcotest.fail "expected rows"
  | Query.Error msg, _ -> Alcotest.fail msg

let test_query_aggregates () =
  let db = orders_db () in
  let txn = Txn.begin_ db in
  (match exec_rows txn (Query.Aggregate { table = "ord"; op = Query.Count_all; where = None }) with
  | [ [| Value.Int n |] ] -> Alcotest.(check int) "count(*)" 30 n
  | _ -> Alcotest.fail "bad count result");
  (match
     exec_rows txn
       (Query.Aggregate
          {
            table = "ord";
            op = Query.Sum "line";
            where = Some Expr.(col orders_schema "o_id" = i 0);
          })
   with
  | [ [| Value.Float s |] ] -> Alcotest.(check (float 1e-9)) "sum(line)" 3.0 s
  | _ -> Alcotest.fail "bad sum result");
  (match exec_rows txn (Query.Aggregate { table = "ord"; op = Query.Max_of "item"; where = None }) with
  | [ [| Value.Float m |] ] -> Alcotest.(check (float 1e-9)) "max(item)" 4.0 m
  | _ -> Alcotest.fail "bad max result");
  match
    exec_rows txn
      (Query.Aggregate
         {
           table = "ord";
           op = Query.Avg "item";
           where = Some Expr.(col orders_schema "o_id" = i 999);
         })
  with
  | [ [| Value.Null |] ] -> ()
  | _ -> Alcotest.fail "avg of empty set should be NULL"

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
    ( Table.fold_chains accounts ~init:[] ~f:(fun acc key chain -> (key, chain) :: acc),
      Table.version_count accounts,
      Table.index_entries accounts ~column:1 )
  in
  Database.apply_unpublished db (put "dave") ~version:1;
  let installed = state () in
  Database.apply_unpublished db (put "erin") ~version:1;
  Database.apply db (put "erin") ~version:1;
  Alcotest.(check bool) "chains, version count and index unchanged" true
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
  | Chains

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
      (1, return Chains);
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
  | Chains -> "chains"

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
          | Chains ->
            let got =
              Mvcc.fold_chains store ~init:[] ~f:(fun acc k chain -> (k, fst (List.hd chain)) :: acc)
            in
            List.rev got = List.map (fun (k, versions) -> (k, fst (List.hd versions))) (sorted ()))
        ops)

(* --- Codec and checkpoints --- *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1e12);
        map (fun s -> Value.Text s) string;
        map (fun b -> Value.Bool b) bool;
      ])

let prop_codec_value_roundtrip =
  QCheck.Test.make ~name:"codec value roundtrip" ~count:500
    (QCheck.make value_gen)
    (fun v ->
      let buf = Buffer.create 16 in
      Codec.encode_value buf v;
      let r = Codec.reader (Buffer.contents buf) in
      let v' = Codec.decode_value r in
      Value.equal v v' && Codec.reader_at_end r)

let prop_codec_row_roundtrip =
  QCheck.Test.make ~name:"codec row roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(array_size (int_range 0 20) value_gen))
    (fun row ->
      let buf = Buffer.create 64 in
      Codec.encode_row buf row;
      let r = Codec.reader (Buffer.contents buf) in
      let row' = Codec.decode_row r in
      Array.length row = Array.length row'
      && Array.for_all2 Value.equal row row')

let test_codec_writeset_roundtrip () =
  let ws =
    Writeset.of_entries
      [
        entry "t" 1 (Writeset.Put [| vi 1; vt "x" |]);
        entry "u" 2 Writeset.Delete;
        entry "t" 3 (Writeset.Put [| vi 3; Value.Null |]);
      ]
  in
  let buf = Buffer.create 64 in
  Codec.encode_writeset buf ws;
  let ws' = Codec.decode_writeset (Codec.reader (Buffer.contents buf)) in
  Alcotest.(check int) "cardinality preserved" (Writeset.cardinal ws) (Writeset.cardinal ws');
  Alcotest.(check bool) "delete preserved" true (Writeset.mem ws' ~table:"u" ~key:[| vi 2 |]);
  Alcotest.(check int) "exact size accounting" (Buffer.length buf) (Codec.writeset_bytes ws)

let test_codec_corrupt_input () =
  Alcotest.(check bool) "truncated input rejected" true
    (try
       ignore (Codec.decode_value (Codec.reader "\001\042"));
       false
     with Codec.Corrupt _ -> true);
  Alcotest.(check bool) "bad tag rejected" true
    (try
       ignore (Codec.decode_value (Codec.reader "\255"));
       false
     with Codec.Corrupt _ -> true)

let test_codec_schema_roundtrip () =
  let buf = Buffer.create 64 in
  Codec.encode_schema buf accounts_schema;
  let s = Codec.decode_schema (Codec.reader (Buffer.contents buf)) in
  Alcotest.(check string) "name" "accounts" s.Schema.table_name;
  Alcotest.(check int) "columns" 3 (Schema.column_count s);
  Alcotest.(check bool) "key preserved" true (s.Schema.primary_key = [| 0 |]);
  Alcotest.(check bool) "index preserved" true (s.Schema.indexed = [| 1 |])

let test_database_snapshot_roundtrip () =
  let db = fresh_db () in
  (* Create some version history: two commits. *)
  List.iter
    (fun delta ->
      let txn = Txn.begin_ db in
      ignore
        (Txn.update_key txn ~table:"accounts" ~key:[| vi 1 |]
           ~set:[ ("balance", Expr.(Col 2 + i delta)) ]);
      ignore (Txn.commit_standalone txn))
    [ 10; 20 ];
  let restored = Database.of_snapshot (Database.snapshot db) in
  Alcotest.(check int) "version restored" (Database.version db) (Database.version restored);
  Alcotest.(check (list string)) "tables restored" (Database.table_names db)
    (Database.table_names restored);
  (* Every retained snapshot version must agree. *)
  for at = 0 to Database.version db do
    Alcotest.(check int)
      (Printf.sprintf "fingerprint at v%d" at)
      (Database.fingerprint db ~at)
      (Database.fingerprint restored ~at)
  done;
  (* Secondary indexes were rebuilt. *)
  let txn = Txn.begin_ restored in
  Alcotest.(check int) "index works after restore" 2
    (List.length
       (Txn.select txn ~table:"accounts"
          ~where:Expr.(col accounts_schema "owner" = s "alice")
          ()))

let test_database_snapshot_rejects_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Database.of_snapshot "not a snapshot at all");
       false
     with Codec.Corrupt _ -> true)

let test_fingerprint_detects_divergence () =
  let a = fresh_db () and b = fresh_db () in
  Alcotest.(check int) "identical databases agree" (Database.fingerprint a ~at:0)
    (Database.fingerprint b ~at:0);
  let txn = Txn.begin_ b in
  ignore (Txn.update_key txn ~table:"accounts" ~key:[| vi 1 |] ~set:[ ("balance", Expr.i 1) ]);
  ignore (Txn.commit_standalone txn);
  Alcotest.(check bool) "divergent databases differ" true
    (Database.fingerprint a ~at:0 <> Database.fingerprint b ~at:1)

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
        Alcotest.test_case "like matching" `Quick test_expr_like;
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
      ]
      @ qsuite [ prop_mvcc_matches_model; prop_mvcc_ordered_directory ] );
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
        Alcotest.test_case "commit visibility" `Quick test_txn_commit_visibility;
        Alcotest.test_case "first committer wins" `Quick test_txn_first_committer_wins;
        Alcotest.test_case "snapshot stability" `Quick test_txn_snapshot_stability;
        Alcotest.test_case "insert and delete" `Quick test_txn_insert_delete;
        Alcotest.test_case "select with index" `Quick test_txn_select_predicate_and_index;
        Alcotest.test_case "select overlays writes" `Quick test_txn_select_overlays_writes;
        Alcotest.test_case "update with predicate" `Quick test_txn_update_where;
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
        Alcotest.test_case "aggregates" `Quick test_query_aggregates;
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
      ] );
    ( "storage.codec",
      [
        Alcotest.test_case "writeset roundtrip + size" `Quick test_codec_writeset_roundtrip;
        Alcotest.test_case "corrupt input" `Quick test_codec_corrupt_input;
        Alcotest.test_case "schema roundtrip" `Quick test_codec_schema_roundtrip;
        Alcotest.test_case "database snapshot roundtrip" `Quick
          test_database_snapshot_roundtrip;
        Alcotest.test_case "snapshot rejects garbage" `Quick
          test_database_snapshot_rejects_garbage;
        Alcotest.test_case "fingerprint divergence" `Quick test_fingerprint_detects_divergence;
      ]
      @ qsuite [ prop_codec_value_roundtrip; prop_codec_row_roundtrip ] );
  ]
