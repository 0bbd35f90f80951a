(* Bechamel micro-benchmarks of the core building blocks (certifier
   conflict check, writeset application, MVCC reads, query execution,
   history checking, building the initial database), so component-level
   regressions are visible independently of the system experiments. The
   paper's tables and figures are `repro all'.

   Set REPRO_QUICK=1 for smaller fixtures (the CI smoke configuration). *)

let quick =
  match Sys.getenv_opt "REPRO_QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let say fmt = Printf.printf (fmt ^^ "\n%!")

let timed label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  say "[%s took %.1fs]" label (Unix.gettimeofday () -. t0);
  r

let bench_fixture () =
  (* A populated standalone database for storage-level benches. *)
  let schema =
    Storage.Schema.make ~name:"bench"
      ~columns:
        [ ("id", Storage.Value.Tint); ("val", Storage.Value.Tint);
          ("tag", Storage.Value.Ttext) ]
      ~indexes:[ "tag" ] ~key:[ "id" ] ()
  in
  let db = Storage.Database.create () in
  ignore (Storage.Database.create_table db schema);
  Storage.Database.load db "bench"
    (List.init 10_000 (fun i ->
         [|
           Storage.Value.Int i; Storage.Value.Int (i * 7);
           Storage.Value.Text (Printf.sprintf "tag%d" (i mod 100));
         |]));
  db

let writeset_of_size n =
  Storage.Writeset.of_entries
    (List.init n (fun i ->
         {
           Storage.Writeset.ws_table = "bench";
           ws_key = [| Storage.Value.Int i |];
           ws_op =
             Storage.Writeset.Put
               [| Storage.Value.Int i; Storage.Value.Int 0; Storage.Value.Text "t" |];
         }))

(* A strongly consistent run log of [n] transactions: every other one
   commits v(i+1) from snapshot i, and each reads every earlier commit. *)
let clean_log n =
  List.init n (fun i ->
      {
        Check.Runlog.tid = i;
        session = i mod 10;
        begin_time = float_of_int i;
        ack_time = float_of_int i +. 0.5;
        snapshot_version = i;
        commit_version = (if i mod 2 = 0 then Some (i + 1) else None);
        epoch = 0;
        lb_epoch = 0;
        table_set = [ "t" ];
        tier = Check.Runlog.Strong;
        tables_written = (if i mod 2 = 0 then [ "t" ] else []);
        write_keys = (if i mod 2 = 0 then [ ("t", string_of_int i) ] else []);
        trace = None;
      })

let component_tests () =
  let open Bechamel in
  let db = bench_fixture () in
  let rng = Util.Rng.create 1 in
  let mvcc_point_read =
    Test.make ~name:"mvcc point read"
      (Staged.stage (fun () ->
           let key = [| Storage.Value.Int (Util.Rng.int rng 10_000) |] in
           ignore (Storage.Table.read (Storage.Database.table db "bench") ~key ~at:0)))
  in
  let txn_update =
    Test.make ~name:"txn update + writeset extraction"
      (Staged.stage (fun () ->
           let txn = Storage.Txn.begin_ db in
           ignore
             (Storage.Txn.update_key txn ~table:"bench"
                ~key:[| Storage.Value.Int (Util.Rng.int rng 10_000) |]
                ~set:[ ("val", Storage.Expr.i 1) ]);
           ignore (Storage.Txn.writeset txn)))
  in
  let index_select =
    Test.make ~name:"secondary-index select (~100 rows)"
      (Staged.stage (fun () ->
           let txn = Storage.Txn.begin_ db in
           let tag = Printf.sprintf "tag%d" (Util.Rng.int rng 100) in
           ignore
             (Storage.Txn.select txn ~table:"bench"
                ~where:Storage.Expr.(Col 2 = Const (Storage.Value.Text tag))
                ())))
  in
  let mvcc_range_after_insert =
    (* TPC-C order-line shape: each iteration installs a key past the
       end, then range-scans the 20 keys just below it, so every scan
       follows a fresh key. The store restarts from 10k keys every 100k
       inserts to bound its memory. *)
    let install store i =
      Storage.Mvcc.install store [| Storage.Value.Int i |] ~version:0
        (Some [| Storage.Value.Int i |])
    in
    let fresh () =
      let store = Storage.Mvcc.create () in
      for i = 0 to 9_999 do
        install store i
      done;
      store
    in
    let store = ref (fresh ()) and next = ref 10_000 in
    Test.make ~name:"mvcc range scan after fresh-key insert"
      (Staged.stage (fun () ->
           if !next >= 110_000 then begin
             store := fresh ();
             next := 10_000
           end;
           install !store !next;
           incr next;
           Storage.Mvcc.iter_keys_range !store ~lo:[| Storage.Value.Int (!next - 20) |] ignore))
  in
  let mvcc_random_insert =
    (* TPC-C's fresh order ids are random, so its fresh keys land all
       over a scanned table's directory rather than at its end. Each
       iteration installs a key at a random position among 100k keys
       whose directory is built; the store restarts from a copy every
       100k inserts to bound its memory. *)
    let template = Storage.Mvcc.create () in
    for i = 0 to 99_999 do
      Storage.Mvcc.install template [| Storage.Value.Int (2 * i) |] ~version:0 None
    done;
    Storage.Mvcc.iter_keys_ordered template ignore;
    let store = ref (Storage.Mvcc.copy template) and inserted = ref 0 in
    Test.make ~name:"mvcc fresh-key insert at a random position, 100k keys"
      (Staged.stage (fun () ->
           if !inserted >= 100_000 then begin
             store := Storage.Mvcc.copy template;
             inserted := 0
           end;
           let odd = (2 * Util.Rng.int rng 100_000) + 1 in
           Storage.Mvcc.install !store
             [| Storage.Value.Int odd; Storage.Value.Int !inserted |]
             ~version:0 None;
           incr inserted))
  in
  let small = writeset_of_size 4 and big = writeset_of_size 64 in
  let ws_conflict =
    Test.make ~name:"writeset conflict check (4 vs 64)"
      (Staged.stage (fun () -> ignore (Storage.Writeset.conflicts small big)))
  in
  let checker =
    let log = clean_log 200 in
    Test.make ~name:"strong-consistency check (200 txns)"
      (Staged.stage (fun () -> ignore (Check.Runlog.strong_consistency log)))
  in
  let sim_events =
    Test.make ~name:"simulator: 1000 timer events"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           for i = 0 to 999 do
             Sim.Engine.schedule engine ~delay:(float_of_int i) (fun () -> ())
           done;
           Sim.Engine.run engine))
  in
  (* Workload events are almost all resumed processes, not closures:
     these two time the suspend/resume path itself. *)
  let sim_sleeps =
    Test.make ~name:"simulator: 1000 process sleeps"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           Sim.Process.spawn engine (fun () ->
               for _ = 1 to 1000 do
                 Sim.Process.sleep engine 1.0
               done);
           Sim.Engine.run engine))
  in
  let sim_resource =
    Test.make ~name:"simulator: 1000 contended resource uses (2 processes)"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           let server = Sim.Resource.create engine ~servers:1 in
           for _ = 1 to 2 do
             Sim.Process.spawn engine (fun () ->
                 for _ = 1 to 500 do
                   Sim.Resource.use server ~duration:1.0
                 done)
           done;
           Sim.Engine.run engine))
  in
  (* Everything here is due at the current instant, so it runs from the
     engine's same-instant ring; "1000 timer events" runs from its heap.
     The 1000 spawns that park the waiters are ring events too. *)
  let sim_wakes =
    Test.make ~name:"simulator: 1000 same-instant wakes"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           let ready = Sim.Condition.create engine in
           let go = ref false in
           for _ = 1 to 1000 do
             Sim.Process.spawn engine (fun () -> Sim.Condition.await ready (fun () -> !go))
           done;
           Sim.Engine.schedule engine ~delay:0.0 (fun () ->
               go := true;
               Sim.Condition.broadcast ready);
           Sim.Engine.run engine))
  in
  Test.make_grouped ~name:"components"
    [
      mvcc_point_read; mvcc_range_after_insert; mvcc_random_insert; txn_update; index_select;
      ws_conflict; checker; sim_events; sim_sleeps; sim_resource; sim_wakes;
    ]

(* Certification conflict check, the key-index probe, with the
   requesting snapshot 1 / 100 / 10k versions behind a 10k-entry log.
   The conflict check consumes no virtual time (the cost model charges
   certify_row_ms per writeset row), so this group measures host CPU
   per decision only. *)

let ws_of ~first_key ~rows =
  Storage.Writeset.of_entries
    (List.init rows (fun i ->
         {
           Storage.Writeset.ws_table = "bench";
           ws_key = [| Storage.Value.Int (first_key + i) |];
           ws_op = Storage.Writeset.Put [| Storage.Value.Int 0 |];
         }))

(* A certification log holding [versions] committed disjoint writesets
   of [ws_rows] rows each, and its key index: disjoint keys with an
   up-to-date snapshot never conflict, so every decision commits and the
   log covers (0, versions]. *)
let certification_fixture ~versions ~ws_rows =
  let log = Core.Certification.Log.create () in
  let index = Core.Certification.Index.create () in
  for i = 0 to versions - 1 do
    let ws = ws_of ~first_key:(i * ws_rows) ~rows:ws_rows in
    match Core.Certification.decide ~record:true log index ~snapshot:i ws with
    | Some _ -> ()
    | None -> assert false
  done;
  assert (Core.Certification.Log.head log = versions);
  index

let certification_tests () =
  let open Bechamel in
  let versions = 10_000 and ws_rows = 4 in
  let index = certification_fixture ~versions ~ws_rows in
  (* Keys no committed writeset ever touched: the worst case for the
     index probe (every key misses). *)
  let ws = ws_of ~first_key:(versions * ws_rows) ~rows:ws_rows in
  let check ~staleness =
    let snapshot = versions - staleness in
    Staged.stage (fun () ->
        ignore (Core.Certification.Index.conflicts index ~snapshot ws))
  in
  Test.make_grouped ~name:"certification"
    (List.map
       (fun staleness ->
         Test.make ~name:(Printf.sprintf "keyed, %d behind" staleness) (check ~staleness))
       [ 1; 100; 10_000 ])

(* Conflict probing over interned dense ids vs boxed (table, key)
   tuples — the two representations a writeset can carry depending on
   whether it was built against the group's intern table. Disjoint key
   ranges force the full scan (worst case for both). *)
let intern_tests () =
  let open Bechamel in
  let entries n offset =
    List.init n (fun i ->
        {
          Storage.Writeset.ws_table = "bench";
          ws_key = [| Storage.Value.Int (offset + i) |];
          ws_op = Storage.Writeset.Delete;
        })
  in
  let intern = Storage.Intern.create () in
  let boxed n offset = Storage.Writeset.of_entries (entries n offset) in
  let interned n offset = Storage.Writeset.of_entries ~intern (entries n offset) in
  let pair name a b =
    Test.make ~name (Staged.stage (fun () -> ignore (Storage.Writeset.conflicts a b)))
  in
  Test.make_grouped ~name:"interning"
    [
      pair "conflict check, boxed tuples (4 vs 4)" (boxed 4 0) (boxed 4 5_000);
      pair "conflict check, interned ids (4 vs 4)" (interned 4 0) (interned 4 5_000);
      pair "conflict check, boxed tuples (4 vs 64)" (boxed 4 0) (boxed 64 10_000);
      pair "conflict check, interned ids (4 vs 64)" (interned 4 0)
        (interned 64 10_000);
    ]

(* A transaction's update statements as the replica runs them: after
   each statement, early certification probes the writes so far against
   the queued refresh writesets (8 here, on keys the statements never
   touch, so nothing aborts); commit then builds the writeset. The cost
   grows linearly in the statement count when the probe reuses the ids
   resolved at buffer time, and quadratically when every probe rebuilds
   and re-interns the whole writeset. *)
let early_cert_tests () =
  let open Bechamel in
  let db = bench_fixture () in
  let replica =
    Core.Replica.create (Sim.Engine.create ()) Core.Config.default ~rng:(Util.Rng.create 1)
      ~id:0 db
  in
  for v = 1 to 8 do
    Core.Replica.receive_refresh replica ~version:v
      ~ws:
        (Storage.Writeset.of_entries ~intern:(Storage.Database.intern db)
           (List.init 4 (fun i ->
                {
                  Storage.Writeset.ws_table = "bench";
                  ws_key = [| Storage.Value.Int (9_000 + (4 * v) + i) |];
                  ws_op = Storage.Writeset.Delete;
                })))
  done;
  let statements n =
    Test.make
      ~name:
        (Printf.sprintf "writeset + early-cert probe after each of %d update statements" n)
      (Staged.stage (fun () ->
           let txn = Core.Replica.begin_txn replica ~tid:1 in
           for s = 0 to n - 1 do
             ignore
               (Storage.Txn.update_key txn ~table:"bench"
                  ~key:[| Storage.Value.Int (7 * s) |]
                  ~set:[ ("val", Storage.Expr.i 1) ]);
             if not (Core.Replica.early_certify replica txn) then
               failwith "unexpected conflict"
           done;
           ignore (Storage.Txn.writeset txn);
           Core.Replica.finish_txn replica ~tid:1))
  in
  Test.make_grouped ~name:"early certification" [ statements 10; statements 30 ]

(* The flat Bytes encoding round-tripping a small row's fields, a full
   runlog-record append into the flat sink (the chaos-soak hot path),
   and the decode of a whole log. *)
let codec_tests () =
  let open Bechamel in
  let w = Storage.Codec.Flat.writer ~capacity:256 () in
  let flat_roundtrip =
    Test.make ~name:"fields round-trip, flat Bytes codec"
      (Staged.stage (fun () ->
           Storage.Codec.Flat.clear w;
           Storage.Codec.Flat.int w 42;
           Storage.Codec.Flat.int w 7;
           Storage.Codec.Flat.str w "tag42";
           let c = Storage.Codec.Flat.cursor w in
           ignore (Storage.Codec.Flat.read_int c);
           ignore (Storage.Codec.Flat.read_int c);
           ignore (Storage.Codec.Flat.read_str c)))
  in
  let record =
    {
      Check.Runlog.tid = 42;
      session = 3;
      begin_time = 1234.5;
      ack_time = 1236.0;
      snapshot_version = 41;
      commit_version = Some 43;
      epoch = 0;
      lb_epoch = 0;
      table_set = [ "bench" ];
      tier = Check.Runlog.Strong;
      tables_written = [ "bench" ];
      write_keys = [ ("bench", "42") ];
      trace = None;
    }
  in
  let sink = Check.Runlog.Sink.create ~capacity:1024 () in
  let sink_append =
    Test.make ~name:"runlog record append, flat sink"
      (Staged.stage (fun () ->
           Check.Runlog.Sink.clear sink;
           Check.Runlog.Sink.add sink record))
  in
  (* Decoding a soak-sized log, as each checker pass does first. *)
  let n = 20_000 in
  let log = Check.Runlog.Sink.create () in
  List.iter (Check.Runlog.Sink.add log) (clean_log n);
  let sink_decode =
    Test.make
      ~name:(Printf.sprintf "runlog sink decode (%d records)" n)
      (Staged.stage (fun () -> ignore (Check.Runlog.Sink.records log)))
  in
  Test.make_grouped ~name:"codec" [ flat_roundtrip; sink_append; sink_decode ]

(* Two checkers of the failover-open battery, on a clean log of about
   the size of a soak's: each costs O(n log n) here. *)
let checker_tests () =
  let open Bechamel in
  let n = if quick then 2_000 else 20_000 in
  let log = clean_log n in
  let case name check =
    Test.make
      ~name:(Printf.sprintf "%s (%d txns)" name n)
      (Staged.stage (fun () -> ignore (check log)))
  in
  Test.make_grouped ~name:"checkers"
    [
      case "fine strong-consistency check" Check.Runlog.fine_strong_consistency;
      case "first-committer-wins check" Check.Runlog.first_committer_wins;
    ]

(* Version 0 of the paper's micro-benchmark database (40 tables x 10k
   rows): loading it, which validates, keys and installs every row,
   against the structural copy each further replica of a cluster
   starts from. *)
let initial_database_tests () =
  let open Bechamel in
  let params = Workload.Microbench.default in
  let load () =
    let db = Storage.Database.create () in
    List.iter
      (fun schema -> ignore (Storage.Database.create_table db schema))
      (Workload.Microbench.schemas params);
    Workload.Microbench.load params db;
    db
  in
  let loaded = load () in
  Test.make_grouped ~name:"initial database"
    [
      Test.make ~name:"load 40 x 10k rows" (Staged.stage (fun () -> ignore (load ())));
      Test.make ~name:"copy of the loaded database"
        (Staged.stage (fun () -> ignore (Storage.Database.copy loaded)));
    ]

let run_bechamel () =
  let open Bechamel in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let report title test =
    let results = analyze (benchmark test) in
    say "%s" (Experiments.Report.section title);
    let rows = ref [] in
    Hashtbl.iter
      (fun name result ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] -> rows := (name, Printf.sprintf "%12.0f ns/run" est) :: !rows
        | Some _ | None -> rows := (name, "(no estimate)") :: !rows)
      results;
    List.iter
      (fun (name, cell) -> say "%-48s %s" name cell)
      (List.sort compare !rows)
  in
  report "Component micro-benchmarks (Bechamel)" (component_tests ());
  report "Certification index micro-benchmarks (Bechamel)" (certification_tests ());
  report "Interned vs boxed conflict keys (Bechamel)" (intern_tests ());
  report "Early certification per statement (Bechamel)" (early_cert_tests ());
  report "Flat codec and runlog sink (Bechamel)" (codec_tests ());
  report "Run-log checkers (Bechamel)" (checker_tests ());
  report "Initial database: load vs copy (Bechamel)" (initial_database_tests ())

let () =
  say "Component micro-benchmarks — 'Strongly consistent replication for a bargain'";
  say "mode: %s (set REPRO_QUICK=1 for smaller fixtures)\n" (if quick then "quick" else "full");
  timed "bechamel" run_bechamel
