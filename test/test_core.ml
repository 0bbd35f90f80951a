(* End-to-end tests of the replicated cluster. *)

let micro_params = { Workload.Microbench.tables = 4; rows = 100; update_types = 2 }

let make_cluster ?(config = Core.Config.default) mode =
  Core.Cluster.create ~config ~mode
    ~schemas:(Workload.Microbench.schemas micro_params)
    ~load:(Workload.Microbench.load micro_params)
    ()

(* gc_interval_ms = 0 keeps the MVCC vacuum out of the small runs. *)
let small_config =
  {
    Core.Config.default with
    replicas = 3;
    record_log = true;
    seed = 7;
    gc_interval_ms = 0.0;
    hiccup_interval_ms = 0.0;
  }

(* Run one transaction from inside a process and return its outcome. *)
let run_one cluster request =
  let result = ref None in
  Sim.Process.spawn (Core.Cluster.engine cluster) (fun () ->
      result := Some (Core.Cluster.submit cluster ~sid:0 request));
  Helpers.settle (Core.Cluster.engine cluster);
  match !result with Some r -> r | None -> Alcotest.fail "transaction did not finish"

let read_req table key =
  Core.Transaction.make ~profile:"read"
    [ Storage.Query.Get { table; key = [| Storage.Value.Int key |] } ]

let update_req table key =
  Core.Transaction.make ~profile:"upd"
    [
      Storage.Query.Update_key
        {
          table;
          key = [| Storage.Value.Int key |];
          set = [ ("val", Storage.Expr.(Col 1 + i 1)) ];
        };
    ]

let test_read_only_commit () =
  let cluster = make_cluster ~config:small_config Core.Consistency.Coarse in
  match run_one cluster (read_req "t00" 5) with
  | Core.Transaction.Committed { commit_version; snapshot; _ } ->
    Alcotest.(check (option int)) "read-only has no commit version" None commit_version;
    Alcotest.(check int) "snapshot is initial" 0 snapshot
  | Core.Transaction.Aborted _ -> Alcotest.fail "read-only transaction aborted"

let test_update_commit_propagates () =
  let cluster = make_cluster ~config:small_config Core.Consistency.Coarse in
  (match run_one cluster (update_req "t00" 5) with
  | Core.Transaction.Committed { commit_version; _ } ->
    Alcotest.(check (option int)) "first update commits at v1" (Some 1) commit_version
  | Core.Transaction.Aborted _ -> Alcotest.fail "update aborted");
  (* Once the run settles, every replica must have applied v1. *)
  for i = 0 to small_config.Core.Config.replicas - 1 do
    let replica = Core.Cluster.replica cluster i in
    Alcotest.(check int)
      (Printf.sprintf "replica %d applied v1" i)
      1
      (Core.Replica.v_local replica);
    let row =
      Storage.Table.read
        (Storage.Database.table (Core.Replica.database replica) "t00")
        ~key:[| Storage.Value.Int 5 |] ~at:1
    in
    match row with
    | Some r -> Alcotest.(check int) "val incremented" ((5 * 17 mod 97) + 1)
                  (Storage.Value.as_int r.(1))
    | None -> Alcotest.fail "row missing"
  done

let test_strong_consistency_across_clients () =
  (* Client 0 updates; after its ack, client 1 must see the new value
     under the coarse configuration. *)
  let cluster = make_cluster ~config:small_config Core.Consistency.Coarse in
  let engine = Core.Cluster.engine cluster in
  let seen = ref (-1) in
  Sim.Process.spawn engine (fun () ->
      match Core.Cluster.submit cluster ~sid:0 (update_req "t01" 7) with
      | Core.Transaction.Committed _ ->
        (* Hidden channel: after the ack, a different session reads. *)
        Sim.Process.spawn engine (fun () ->
            match Core.Cluster.submit cluster ~sid:1 (read_req "t01" 7) with
            | Core.Transaction.Committed { snapshot; _ } -> seen := snapshot
            | Core.Transaction.Aborted _ -> ())
      | Core.Transaction.Aborted _ -> Alcotest.fail "update aborted");
  Helpers.settle engine;
  Alcotest.(check bool) "second client read snapshot >= 1" true (!seen >= 1)

let test_certification_conflict () =
  (* Two concurrent updates of the same row on different replicas: the
     certifier must abort one. *)
  let config = { small_config with max_retries = 0 } in
  let cluster = make_cluster ~config Core.Consistency.Session in
  let engine = Core.Cluster.engine cluster in
  let outcomes = ref [] in
  for sid = 0 to 1 do
    Sim.Process.spawn engine (fun () ->
        let o = Core.Cluster.submit cluster ~sid (update_req "t00" 1) in
        outcomes := o :: !outcomes)
  done;
  Helpers.settle engine;
  let commits =
    List.length
      (List.filter
         (function Core.Transaction.Committed _ -> true | _ -> false)
         !outcomes)
  in
  (* Both may commit if one certifies before the other begins; with
     simultaneous submission both read snapshot v0, so exactly one
     commits. *)
  Alcotest.(check int) "exactly one concurrent writer commits" 1 commits

let test_eager_all_replicas_before_ack () =
  let cluster = make_cluster ~config:small_config Core.Consistency.Eager in
  let engine = Core.Cluster.engine cluster in
  let lagging = ref (-1) in
  Sim.Process.spawn engine (fun () ->
      match Core.Cluster.submit cluster ~sid:0 (update_req "t02" 3) with
      | Core.Transaction.Committed _ ->
        (* At ack time every replica must already be at v1. *)
        let min_v = ref max_int in
        for i = 0 to small_config.Core.Config.replicas - 1 do
          min_v := min !min_v (Core.Replica.v_local (Core.Cluster.replica cluster i))
        done;
        lagging := !min_v
      | Core.Transaction.Aborted _ -> Alcotest.fail "update aborted");
  Helpers.settle engine;
  Alcotest.(check int) "all replicas applied v1 before client ack" 1 !lagging

let test_metrics_stages_recorded () =
  let cluster = make_cluster ~config:small_config Core.Consistency.Coarse in
  match run_one cluster (update_req "t00" 9) with
  | Core.Transaction.Committed { stages; _ } ->
    let certify = stages.(Core.Metrics.stage_index Core.Metrics.Certify) in
    let commit = stages.(Core.Metrics.stage_index Core.Metrics.Commit) in
    let global = stages.(Core.Metrics.stage_index Core.Metrics.Global) in
    Alcotest.(check bool) "certify stage positive" true (certify > 0.0);
    Alcotest.(check bool) "commit stage positive" true (commit > 0.0);
    Alcotest.(check (float 0.0)) "no global stage outside eager" 0.0 global
  | Core.Transaction.Aborted _ -> Alcotest.fail "update aborted"

let test_session_version_tracking () =
  let cluster = make_cluster ~config:small_config Core.Consistency.Session in
  let engine = Core.Cluster.engine cluster in
  Sim.Process.spawn engine (fun () ->
      ignore (Core.Cluster.submit cluster ~sid:42 (update_req "t00" 2)));
  Helpers.settle engine;
  let lb = Core.Cluster.load_balancer cluster in
  Alcotest.(check int) "session version recorded" 1
    (Core.Load_balancer.session_version lb ~sid:42)

let test_load_balancer_least_active () =
  let lb = Core.Load_balancer.create small_config ~mode:Core.Consistency.Coarse in
  Core.Load_balancer.note_dispatch lb ~replica:0;
  Core.Load_balancer.note_dispatch lb ~replica:0;
  Core.Load_balancer.note_dispatch lb ~replica:1;
  Alcotest.(check int) "route to least-active replica" 2
    (Core.Load_balancer.choose_replica lb ~sid:0);
  Core.Load_balancer.note_dispatch lb ~replica:2;
  Core.Load_balancer.note_dispatch lb ~replica:2;
  Alcotest.(check int) "then to the next least-active" 1
    (Core.Load_balancer.choose_replica lb ~sid:0)

let test_load_balancer_policies () =
  let config routing = { small_config with Core.Config.routing } in
  (* Round-robin cycles through live replicas. *)
  let rr =
    Core.Load_balancer.create (config Core.Config.Round_robin)
      ~mode:Core.Consistency.Coarse
  in
  let picks = List.init 6 (fun _ -> Core.Load_balancer.choose_replica rr ~sid:0) in
  Alcotest.(check (list int)) "round robin cycles" [ 0; 1; 2; 0; 1; 2 ] picks;
  (* Round-robin skips dead replicas. *)
  Core.Load_balancer.set_live rr ~replica:1 false;
  let picks = List.init 4 (fun _ -> Core.Load_balancer.choose_replica rr ~sid:0) in
  Alcotest.(check bool) "dead replica skipped" true (not (List.mem 1 picks));
  (* Session affinity is sticky per session and spreads sessions. *)
  let sa =
    Core.Load_balancer.create (config Core.Config.Session_affinity)
      ~mode:Core.Consistency.Coarse
  in
  for sid = 0 to 20 do
    let first = Core.Load_balancer.choose_replica sa ~sid in
    let second = Core.Load_balancer.choose_replica sa ~sid in
    Alcotest.(check int) "sticky" first second
  done;
  let distinct =
    List.sort_uniq compare
      (List.init 21 (fun sid -> Core.Load_balancer.choose_replica sa ~sid))
  in
  Alcotest.(check bool) "sessions spread over replicas" true (List.length distinct >= 2);
  (* Affinity falls back when the pinned replica dies. *)
  let pinned = Core.Load_balancer.choose_replica sa ~sid:7 in
  Core.Load_balancer.set_live sa ~replica:pinned false;
  Alcotest.(check bool) "fallback avoids dead pin" true
    (Core.Load_balancer.choose_replica sa ~sid:7 <> pinned)

let test_fine_table_versions () =
  let lb = Core.Load_balancer.create small_config ~mode:Core.Consistency.Fine in
  Core.Load_balancer.note_commit_ack lb ~sid:0 ~version:1 ~tables_written:[ "a" ];
  Core.Load_balancer.note_commit_ack lb ~sid:0 ~version:2 ~tables_written:[ "b"; "c" ];
  Core.Load_balancer.note_commit_ack lb ~sid:0 ~version:3 ~tables_written:[ "b" ];
  Alcotest.(check int) "start version for {a}" 1
    (Core.Load_balancer.start_version lb ~sid:9 ~table_set:[ "a" ]);
  Alcotest.(check int) "start version for {a,c}" 2
    (Core.Load_balancer.start_version lb ~sid:9 ~table_set:[ "a"; "c" ]);
  Alcotest.(check int) "start version for untouched table" 0
    (Core.Load_balancer.start_version lb ~sid:9 ~table_set:[ "z" ])

(* A fixed medium-sized run returning everything observable about the
   outcome; used by the determinism tests below. [tweak] adjusts the
   config (e.g. to turn batching knobs). *)
let determinism_run ?(tweak = fun c -> c) ?faults ~tracing () =
  let params = { Workload.Microbench.tables = 4; rows = 200; update_types = 2 } in
  let cluster =
    Core.Cluster.create
      ~config:(tweak { small_config with Core.Config.hiccup_interval_ms = 700.0 })
      ?faults ~tracing ~mode:Core.Consistency.Fine
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  Core.Client.spawn_many cluster ~n:12 ~first_sid:0
    (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:1_500.0;
  let m = Core.Cluster.metrics cluster in
  let v = Core.Certifier.version (Core.Cluster.certifier cluster) in
  let fp =
    Storage.Database.fingerprint
      (Core.Replica.database (Core.Cluster.replica cluster 0))
      ~at:(Core.Replica.v_local (Core.Cluster.replica cluster 0))
  in
  (Core.Metrics.committed m, Core.Metrics.mean_response_ms m, v, fp)

let test_simulation_determinism () =
  (* The entire stack — RNG, event ordering, protocol — must be
     deterministic: two runs with the same seed are bit-identical. *)
  let c1, r1, v1, f1 = determinism_run ~tracing:false () in
  let c2, r2, v2, f2 = determinism_run ~tracing:false () in
  Alcotest.(check int) "same committed count" c1 c2;
  Alcotest.(check (float 0.0)) "same mean response" r1 r2;
  Alcotest.(check int) "same certified version" v1 v2;
  Alcotest.(check int) "same database contents" f1 f2

(* Golden values of the unbatched pipeline. They were captured from the
   pre-batching sequencer and certifier (commit 88e25aa), and re-pinned
   once when the one replication protocol replaced the exactly-once
   message layer: its heartbeats and network commit acks draw from the
   network's jitter stream. The default knobs [cert_batch = 1] /
   [apply_parallelism = 1] must reproduce the run bit-identically: same
   commit count, same response-time mean to the last float bit, same
   version count, same database contents. Any event reordering, extra
   random draw or changed message size shows up here. *)
let golden_committed = 6679
let golden_mean_response = 2.5957240457941482
let golden_version = 3883
let golden_fingerprint = 24775859251359

let check_golden (c, r, v, f) =
  Alcotest.(check int) "golden committed count" golden_committed c;
  Alcotest.(check (float 0.0)) "golden mean response" golden_mean_response r;
  Alcotest.(check int) "golden certified version" golden_version v;
  Alcotest.(check int) "golden database contents" golden_fingerprint f

(* The paper's four-configuration comparison on the micro-benchmark:
   seed 42, 4 replicas, 40 clients, 20 tables x 2,000 rows with 5 update
   types (25% update transactions, Fig. 4's case where the modes
   separate), 500 ms warm-up then 3,000 ms measured. One row per mode in
   [Consistency.all] order: committed, aborted, TPS, p50 and p99
   response (ms), certifier decisions in the window. Virtual time is
   deterministic per seed, so every value is pinned exactly: any change
   is a protocol change. To re-pin after a deliberate one, paste the
   rows the failing test prints and record the delta in CHANGES.md. *)
let golden_sweep =
  [
    (Core.Consistency.Eager, 30718, 8, 10239.333333333334, 2.0948005634636502, 13.902388999083541, 7607);
    (Core.Consistency.Coarse, 33498, 8, 11166., 2.6479007501257001, 9.3989580387790284, 8325);
    (Core.Consistency.Fine, 34268, 32, 11422.666666666666, 2.2871748873017168, 11.148913427430898, 8527);
    ( Core.Consistency.Session, 35843, 34, 11947.666666666666, 2.3863961802594531,
      9.7805871508003293, 8927 );
  ]

let sweep_row mode =
  let params = { Workload.Microbench.tables = 20; rows = 2_000; update_types = 5 } in
  let cluster =
    Core.Cluster.create
      ~config:{ Core.Config.default with Core.Config.replicas = 4 }
      ~mode
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  Core.Client.spawn_many cluster ~n:40 ~first_sid:0 (Workload.Microbench.workload params);
  let decided () =
    let c, a = Core.Certifier.decisions (Core.Cluster.certifier cluster) in
    c + a
  in
  let engine = Core.Cluster.engine cluster in
  let m = Core.Cluster.metrics cluster in
  let start = Sim.Engine.now engine in
  Sim.Engine.run engine ~until:(start +. 500.0);
  Core.Metrics.reset_window m;
  let decided0 = decided () in
  Sim.Engine.run engine ~until:(start +. 3_500.0);
  ( mode,
    Core.Metrics.committed m,
    Core.Metrics.aborted m,
    Core.Metrics.throughput_tps m,
    Core.Metrics.percentile_response_ms m 50.0,
    Core.Metrics.percentile_response_ms m 99.0,
    decided () - decided0 )

let test_four_mode_sweep_matches_golden () =
  let measured = List.map sweep_row Core.Consistency.all in
  let float_lit x =
    let s = Printf.sprintf "%.17g" x in
    if String.contains s '.' || String.contains s 'e' then s else s ^ "."
  in
  if measured <> golden_sweep then begin
    print_endline "measured rows:";
    List.iter
      (fun (mode, committed, aborted, tps, p50, p99, decisions) ->
        Printf.printf "    (Core.Consistency.%s, %d, %d, %s, %s, %s, %d);\n"
          (String.capitalize_ascii (Core.Consistency.to_string mode))
          committed aborted (float_lit tps) (float_lit p50) (float_lit p99) decisions)
      measured
  end;
  List.iter2
    (fun (mode, committed', aborted', tps', p50', p99', decisions')
         (_, committed, aborted, tps, p50, p99, decisions) ->
      let name = Core.Consistency.to_string mode in
      Alcotest.(check int) (name ^ " committed") committed' committed;
      Alcotest.(check int) (name ^ " aborted") aborted' aborted;
      Alcotest.(check (float 0.0)) (name ^ " TPS") tps' tps;
      Alcotest.(check (float 0.0)) (name ^ " p50 response") p50' p50;
      Alcotest.(check (float 0.0)) (name ^ " p99 response") p99' p99;
      Alcotest.(check int) (name ^ " certifier decisions") decisions' decisions)
    golden_sweep measured

let test_unbatched_matches_golden () =
  Alcotest.(check int) "default cert_batch" 1 Core.Config.default.Core.Config.cert_batch;
  Alcotest.(check int) "default apply_parallelism" 1
    Core.Config.default.Core.Config.apply_parallelism;
  check_golden (determinism_run ~tracing:false ())

let test_explicit_batch_one_matches_golden () =
  (* Spelling the knobs out (rather than relying on the defaults) pins
     the equivalence claim of docs/PROTOCOL.md: batch size 1 IS the
     unbatched protocol. *)
  let tweak c = { c with Core.Config.cert_batch = 1; apply_parallelism = 1 } in
  check_golden (determinism_run ~tweak ~tracing:false ())

let test_clean_fault_plan_matches_golden () =
  (* An attached but all-clean fault plan must be a pure no-op: it draws
     nothing from its RNG and injects nothing, so the run is
     event-identical to having no plan at all. *)
  check_golden
    (determinism_run ~faults:(fun e -> Sim.Faults.create ~seed:999 e) ~tracing:false ())

(* [load] builds version 0 once per cluster; every replica starts with
   its own database holding exactly what a fresh load holds. *)
let test_initial_database_loaded_once () =
  let fresh = Storage.Database.create () in
  List.iter
    (fun schema -> ignore (Storage.Database.create_table fresh schema))
    (Workload.Microbench.schemas micro_params);
  Workload.Microbench.load micro_params fresh;
  let expected = Storage.Database.fingerprint fresh ~at:0 in
  List.iter
    (fun replicas ->
      let loads = ref 0 in
      let cluster =
        Core.Cluster.create ~config:{ small_config with replicas } ~mode:Core.Consistency.Session
          ~schemas:(Workload.Microbench.schemas micro_params)
          ~load:(fun db ->
            incr loads;
            Workload.Microbench.load micro_params db)
          ()
      in
      let db i = Core.Replica.database (Core.Cluster.replica cluster i) in
      Alcotest.(check int) (Printf.sprintf "%d replicas: one load" replicas) 1 !loads;
      for i = 0 to replicas - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%d replicas: replica %d fingerprint" replicas i)
          expected
          (Storage.Database.fingerprint (db i) ~at:0);
        if i > 0 then
          Alcotest.(check bool)
            (Printf.sprintf "%d replicas: replica %d has its own database" replicas i)
            true
            (db i != db 0)
      done)
    [ 1; 4; 8 ]

let test_tracing_zero_overhead () =
  (* Tracing only observes: an instrumented run must be bit-identical in
     virtual time and outcome to the plain run, down to the response-time
     mean. *)
  let c1, r1, v1, f1 = determinism_run ~tracing:false () in
  let c2, r2, v2, f2 = determinism_run ~tracing:true () in
  Alcotest.(check int) "same committed count" c1 c2;
  Alcotest.(check (float 0.0)) "same mean response" r1 r2;
  Alcotest.(check int) "same certified version" v1 v2;
  Alcotest.(check int) "same database contents" f1 f2

(* The same fixed run with the run-health observatory attached; returns
   the golden tuple plus the serialized time series. *)
let observatory_run () =
  let params = { Workload.Microbench.tables = 4; rows = 200; update_types = 2 } in
  let cluster =
    Core.Cluster.create
      ~config:
        { small_config with Core.Config.hiccup_interval_ms = 700.0; obs_window_ms = 100.0 }
      ~tracing:false ~mode:Core.Consistency.Fine
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  Core.Client.spawn_many cluster ~n:12 ~first_sid:0
    (Workload.Microbench.workload params);
  let ts = Core.Cluster.start_observatory cluster in
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:1_500.0;
  Core.Cluster.stop_observatory cluster ts;
  let m = Core.Cluster.metrics cluster in
  let v = Core.Certifier.version (Core.Cluster.certifier cluster) in
  let fp =
    Storage.Database.fingerprint
      (Core.Replica.database (Core.Cluster.replica cluster 0))
      ~at:(Core.Replica.v_local (Core.Cluster.replica cluster 0))
  in
  ( (Core.Metrics.committed m, Core.Metrics.mean_response_ms m, v, fp),
    Obs.Json.to_string (Obs.Export.timeseries_json ts) )

let test_observatory_zero_overhead () =
  (* The observatory only reads: windows, histograms and gauges must
     not shift a single event, so the instrumented run still reproduces
     the golden baseline bit for bit. *)
  let golden, _series = observatory_run () in
  check_golden golden

let test_observatory_series_deterministic () =
  (* Two instrumented runs with the same seed serialize the exact same
     time series, byte for byte. *)
  let _, s1 = observatory_run () in
  let _, s2 = observatory_run () in
  Alcotest.(check bool) "series non-trivial" true (String.length s1 > 200);
  Alcotest.(check string) "identical serialized time series" s1 s2

let test_observatory_channels_populated () =
  let _, series = observatory_run () in
  let doc =
    match Obs.Json.parse series with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "series is not valid JSON: %s" e
  in
  let windows =
    match Option.bind (Obs.Json.member "windows" doc) Obs.Json.to_list with
    | Some ws -> ws
    | None -> Alcotest.fail "no windows array"
  in
  (* 1.7 s of virtual time in 100 ms windows, plus the flushed tail. *)
  Alcotest.(check bool)
    (Printf.sprintf "many windows (got %d)" (List.length windows))
    true
    (List.length windows >= 17);
  let counter_total name =
    List.fold_left
      (fun acc w ->
        match
          Option.bind
            (Option.bind (Obs.Json.member "counters" w) (Obs.Json.member name))
            Obs.Json.to_float
        with
        | Some v -> acc +. v
        | None -> Alcotest.failf "window missing counter %S" name)
      0.0 windows
  in
  Alcotest.(check bool) "commits counted" true (counter_total "txn.commit" > 0.0);
  Alcotest.(check bool) "certifier decisions counted" true
    (counter_total "certifier.decisions" > 0.0);
  let last = List.nth windows (List.length windows - 1) in
  let gauge name =
    match
      Option.bind
        (Option.bind (Obs.Json.member "gauges" last) (Obs.Json.member name))
        Obs.Json.to_float
    with
    | Some v -> v
    | None -> Alcotest.failf "final window missing gauge %S" name
  in
  Alcotest.(check bool) "v_system gauge advanced" true (gauge "v_system" > 0.0);
  Alcotest.(check bool) "lag gauge sane" true (gauge "replicas.lag.max" >= 0.0);
  Alcotest.(check bool) "cert log gauge sane" true (gauge "certifier.log_size" >= 0.0)

(* A cluster carrying every optional probe source — a fault plan, a
   standby LB and a certifier standby — so the probe table is at its
   widest. *)
let widest_cluster ?(tune = Fun.id) ?(faults = fun e -> Sim.Faults.create ~seed:5 e) () =
  let params = { Workload.Microbench.tables = 4; rows = 200; update_types = 2 } in
  let cluster =
    Core.Cluster.create
      ~config:
        (tune
           {
             small_config with
             Core.Config.lb_standby = true;
             certifier_standbys = 1;
             obs_window_ms = 100.0;
           })
      ~faults ~mode:Core.Consistency.Fine
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  Core.Client.spawn_many cluster ~n:6 ~first_sid:0 (Workload.Microbench.workload params);
  cluster

let test_probe_table_coverage () =
  (* Every probe-table entry reaches every sink under its one name: each
     total is a Metrics window total and an observatory window counter,
     each gauge a window gauge, and the catalog prints them. *)
  let cluster = widest_cluster () in
  let ts = Core.Cluster.start_observatory cluster in
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:300.0;
  Core.Cluster.stop_observatory cluster ts;
  let probes = Core.Cluster.probes cluster in
  let names = List.map (fun (p : Core.Cluster.probe) -> p.Core.Cluster.name) probes in
  Alcotest.(check int) "table names distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in the table") true (List.mem name names))
    [ "replica2.cpu.util"; "certifier.cpu.queue"; "fault.drops"; "lb.takeovers" ];
  Alcotest.(check (list string))
    "every total, and only totals, is a window total in table order"
    (List.filter_map
       (fun (p : Core.Cluster.probe) ->
         if p.Core.Cluster.kind = Core.Cluster.Total then Some p.Core.Cluster.name
         else None)
       probes)
    (List.map fst (Core.Metrics.totals (Core.Cluster.metrics cluster)));
  let catalog = Format.asprintf "%a" Core.Cluster.pp_catalog cluster in
  let lines = String.split_on_char '\n' catalog in
  let printed name =
    List.exists
      (fun l ->
        match String.split_on_char ' ' l with first :: _ -> first = name | [] -> false)
      lines
  in
  List.iter
    (fun (p : Core.Cluster.probe) ->
      let name = p.Core.Cluster.name in
      if p.Core.Cluster.kind = Core.Cluster.Gauge then
        Alcotest.(check bool) (name ^ " printed in the catalog") true (printed name))
    probes;
  Alcotest.(check bool) "catalog prints a nonzero total" true
    (printed "certifier.decisions");
  let windows = Obs.Timeseries.windows ts in
  Alcotest.(check bool) "windows recorded" true (List.length windows >= 4);
  let last = List.nth windows (List.length windows - 1) in
  List.iter
    (fun (p : Core.Cluster.probe) ->
      let name = p.Core.Cluster.name in
      match p.Core.Cluster.kind with
      | Core.Cluster.Gauge ->
        Alcotest.(check bool) (name ^ " is a window gauge") true
          (List.mem_assoc name last.Obs.Timeseries.gauges)
      | Core.Cluster.Total ->
        Alcotest.(check bool) (name ^ " is a window counter") true
          (List.mem_assoc name last.Obs.Timeseries.counters))
    probes;
  List.iter
    (fun (w : Obs.Timeseries.window) ->
      let listed =
        List.map fst w.Obs.Timeseries.counters
        @ List.map fst w.Obs.Timeseries.gauges
        @ List.map fst w.Obs.Timeseries.dists
      in
      Alcotest.(check int)
        (Printf.sprintf "window %d lists each name once" w.Obs.Timeseries.seq)
        (List.length listed)
        (List.length (List.sort_uniq compare listed)))
    windows

let test_window_totals_rebase () =
  (* After [reset_window], every registered total's window count is its
     probe reading minus the reading at the reset — exact at any instant,
     with no sweep tick or event hook in between. A lossy plan makes the
     fault, retransmission and detector totals move. *)
  let faults e =
    let f = Sim.Faults.create ~seed:5 e in
    Sim.Faults.set_default f (Sim.Faults.spec ~drop:0.05 ~duplicate:0.02 ~delay:0.02 ());
    f
  in
  let cluster = widest_cluster ~tune:Core.Config.hardened ~faults () in
  let engine = Core.Cluster.engine cluster and m = Core.Cluster.metrics cluster in
  let totals =
    List.filter
      (fun (p : Core.Cluster.probe) -> p.Core.Cluster.kind = Core.Cluster.Total)
      (Core.Cluster.probes cluster)
  in
  let reading (p : Core.Cluster.probe) = int_of_float (p.Core.Cluster.read ()) in
  Sim.Engine.run engine ~until:150.0;
  Core.Metrics.reset_window m;
  let at_reset = List.map (fun p -> (p.Core.Cluster.name, reading p)) totals in
  List.iter
    (fun until ->
      Sim.Engine.run engine ~until;
      List.iter
        (fun (p : Core.Cluster.probe) ->
          let name = p.Core.Cluster.name in
          Alcotest.(check int)
            (Printf.sprintf "%s at %.0fms" name until)
            (reading p - List.assoc name at_reset)
            (Core.Metrics.total m name))
        totals)
    [ 150.0; 333.0; 600.0 ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " moved") true (Core.Metrics.total m name > 0))
    [ "certifier.decisions"; "fault.drops"; "net.retransmits" ];
  Alcotest.(check int) "retransmits sum the two retransmission totals"
    (Core.Metrics.total m "net.retransmits" + Core.Metrics.total m "certifier.retransmits")
    (Core.Metrics.retransmits m)

(* --- Certifier unit tests (driven directly, inside a process) --- *)

(* The intern table of every certifier these tests create. *)
let intern = Storage.Intern.create ()

let ws_on table key =
  Storage.Writeset.of_entries ~intern
    [
      {
        Storage.Writeset.ws_table = table;
        ws_key = [| Storage.Value.Int key |];
        ws_op = Storage.Writeset.Put [| Storage.Value.Int key |];
      };
    ]

let with_certifier ?(config = small_config) ?(mode = Core.Consistency.Coarse) f =
  let engine = Sim.Engine.create () in
  let rng = Util.Rng.create 1 in
  let network =
    Sim.Network.create engine ~rng:(Util.Rng.split rng) ~base_ms:0.1 ~jitter_ms:0.0
      ~bandwidth_mbps:1000.0
  in
  let certifier = Core.Certifier.create ~intern engine config ~rng ~network ~mode in
  Sim.Process.spawn engine (fun () -> f certifier);
  Sim.Engine.run engine

let test_certifier_conflict_window () =
  with_certifier (fun c ->
      (* T1 commits key 1 at v1. *)
      (match Core.Certifier.certify c ~origin:0 ~snapshot:0 ~ws:(ws_on "t" 1) with
      | Core.Certifier.Commit { version; _ } -> Alcotest.(check int) "v1" 1 version
      | _ -> Alcotest.fail "first writer aborted");
      (* A conflicting writeset with a pre-commit snapshot aborts... *)
      (match Core.Certifier.certify c ~origin:1 ~snapshot:0 ~ws:(ws_on "t" 1) with
      | Core.Certifier.Abort -> ()
      | _ -> Alcotest.fail "conflicting writer committed");
      (* ...but commits once its snapshot includes v1. *)
      (match Core.Certifier.certify c ~origin:1 ~snapshot:1 ~ws:(ws_on "t" 1) with
      | Core.Certifier.Commit { version; _ } -> Alcotest.(check int) "v2" 2 version
      | _ -> Alcotest.fail "sequential writer aborted");
      (* Non-conflicting concurrent writesets both commit. *)
      match Core.Certifier.certify c ~origin:2 ~snapshot:0 ~ws:(ws_on "t" 99) with
      | Core.Certifier.Commit _ -> ()
      | _ -> Alcotest.fail "disjoint writer aborted")

let test_certifier_prune_and_replay () =
  with_certifier (fun c ->
      for i = 1 to 10 do
        match Core.Certifier.certify c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i) with
        | Core.Certifier.Commit _ -> ()
        | _ -> Alcotest.fail "unexpected abort"
      done;
      (match Core.Certifier.writesets_from c 4 with
      | Some l -> Alcotest.(check int) "replay suffix length" 6 (List.length l)
      | None -> Alcotest.fail "log unexpectedly pruned");
      Core.Certifier.prune c ~keep_after:5;
      Alcotest.(check int) "log base" 5 (Core.Certifier.log_base c);
      (match Core.Certifier.writesets_from c 5 with
      | Some l ->
        Alcotest.(check (list int)) "versions 6..10" [ 6; 7; 8; 9; 10 ] (List.map fst l)
      | None -> Alcotest.fail "suffix above the horizon must replay");
      (match Core.Certifier.writesets_from c 3 with
      | None -> ()
      | Some _ -> Alcotest.fail "pruned suffix must not replay");
      (* A snapshot below the horizon is conservatively aborted. *)
      match Core.Certifier.certify c ~origin:0 ~snapshot:2 ~ws:(ws_on "t" 77) with
      | Core.Certifier.Abort -> ()
      | _ -> Alcotest.fail "stale snapshot certified")

let test_certifier_decisions_counter () =
  with_certifier (fun c ->
      ignore (Core.Certifier.certify c ~origin:0 ~snapshot:0 ~ws:(ws_on "t" 1));
      ignore (Core.Certifier.certify c ~origin:0 ~snapshot:0 ~ws:(ws_on "t" 1));
      let commits, aborts = Core.Certifier.decisions c in
      Alcotest.(check (pair int int)) "one commit, one abort" (1, 1) (commits, aborts))

(* --- Metrics --- *)

let test_metrics_accounting () =
  let engine = Sim.Engine.create () in
  let m = Core.Metrics.create engine in
  Sim.Engine.schedule engine ~delay:1_000.0 (fun () ->
      let stages = Array.make Core.Metrics.stage_count 0.0 in
      stages.(Core.Metrics.stage_index Core.Metrics.Queries) <- 2.0;
      Core.Metrics.record_commit m ~read_only:true ~stages ~response_ms:10.0;
      stages.(Core.Metrics.stage_index Core.Metrics.Global) <- 8.0;
      Core.Metrics.record_commit m ~read_only:false ~stages ~response_ms:30.0;
      Core.Metrics.record_abort m);
  Sim.Engine.run engine;
  Alcotest.(check int) "committed" 2 (Core.Metrics.committed m);
  Alcotest.(check (float 1e-6)) "throughput over 1s window" 2.0
    (Core.Metrics.throughput_tps m);
  Alcotest.(check (float 1e-6)) "mean response" 20.0 (Core.Metrics.mean_response_ms m);
  Alcotest.(check (float 1e-6)) "mean queries stage" 2.0
    (Core.Metrics.mean_stage_ms m Core.Metrics.Queries);
  (* Global averages over update transactions only. *)
  Alcotest.(check (float 1e-6)) "global stage per update txn" 8.0
    (Core.Metrics.mean_stage_update_ms m Core.Metrics.Global);
  Alcotest.(check (float 1e-6)) "abort rate" (1.0 /. 3.0) (Core.Metrics.abort_rate m);
  Core.Metrics.reset_window m;
  Alcotest.(check int) "window reset" 0 (Core.Metrics.committed m)

(* Every exit of [Cluster.submit] must undo the bookkeeping its entry
   did: an LB shed, a request-leg timeout, a start-wait or deadline
   expiry, a statement or certification abort, a replica failure and a
   commit. A finite driver offers bursts of transactions under the
   hardened protocol with 5% loss, short cuts on each request leg,
   overload protection and a replica crash mid-run. Once every
   transaction has answered, no LB may count one active or admitted,
   and no replica may hold one open. *)
let test_bookkeeping_balances () =
  (* Each burst is one admission cap's worth, so every burst overruns
     the strong cap. *)
  let burst = Core.Load_balancer.admission_limit in
  let n = 20 * burst in
  let config =
    {
      (Core.Config.hardened small_config) with
      Core.Config.overload_protection = true;
      max_retries = 0;
    }
  in
  let faults engine =
    let f = Sim.Faults.create ~seed:5 engine in
    Sim.Faults.set_default f (Sim.Faults.spec ~drop:0.05 ());
    let cut a b from_ms =
      Sim.Faults.partition f ~a:[ a ] ~b:[ b ] ~from_ms ~until_ms:(from_ms +. 30.0) ()
    in
    cut Core.Config.node_client Core.Config.node_lb 30.0;
    cut Core.Config.node_lb 2 80.0;
    cut 0 Core.Config.node_certifier 130.0;
    f
  in
  let cluster =
    Core.Cluster.create ~config ~faults ~mode:Core.Consistency.Session
      ~schemas:(Workload.Microbench.schemas micro_params)
      ~load:(Workload.Microbench.load micro_params)
      ()
  in
  let engine = Core.Cluster.engine cluster in
  let answered = ref 0 and committed = ref 0 and slugs = ref [] in
  for i = 0 to n - 1 do
    Sim.Process.spawn engine (fun () ->
        Sim.Process.sleep engine (float_of_int (i / burst) *. 10.0);
        let req =
          if i mod 3 = 0 then read_req "t00" (i mod 7) else update_req "t00" (i mod 5)
        in
        (match Core.Cluster.submit cluster ~sid:i req with
        | Core.Transaction.Committed _ -> incr committed
        | Core.Transaction.Aborted { reason; _ } ->
          slugs := Core.Transaction.abort_slug reason :: !slugs);
        incr answered)
  done;
  Sim.Engine.schedule engine ~delay:42.0 (fun () -> Core.Cluster.crash_replica cluster 1);
  Sim.Engine.run engine ~until:2_000.0;
  Alcotest.(check int) "every transaction answered" n !answered;
  Alcotest.(check bool) "some committed" true (!committed > 0);
  List.iter
    (fun slug -> Alcotest.(check bool) ("some " ^ slug ^ " abort") true (List.mem slug !slugs))
    [ "overloaded"; "timeout"; "certification"; "early_certification"; "replica_failure" ];
  let lb = Core.Cluster.load_balancer cluster in
  Alcotest.(check int) "LB admitted" 0 (Core.Load_balancer.admitted lb);
  for i = 0 to config.Core.Config.replicas - 1 do
    Alcotest.(check int) (Printf.sprintf "LB active on replica %d" i) 0
      (Core.Load_balancer.active lb ~replica:i);
    Alcotest.(check int)
      (Printf.sprintf "replica %d open transactions" i)
      0
      (Core.Replica.active_local (Core.Cluster.replica cluster i))
  done

let suites =
  [
    ( "core.cluster",
      [
        Alcotest.test_case "read-only commit" `Quick test_read_only_commit;
        Alcotest.test_case "update commit propagates" `Quick test_update_commit_propagates;
        Alcotest.test_case "strong consistency across clients" `Quick
          test_strong_consistency_across_clients;
        Alcotest.test_case "certification conflict" `Quick test_certification_conflict;
        Alcotest.test_case "eager waits for all replicas" `Quick
          test_eager_all_replicas_before_ack;
        Alcotest.test_case "metrics stages" `Quick test_metrics_stages_recorded;
        Alcotest.test_case "session version tracking" `Quick test_session_version_tracking;
        Alcotest.test_case "simulation determinism" `Quick test_simulation_determinism;
        Alcotest.test_case "unbatched run matches golden baseline" `Quick
          test_unbatched_matches_golden;
        Alcotest.test_case "explicit batch=1 matches golden baseline" `Quick
          test_explicit_batch_one_matches_golden;
        Alcotest.test_case "clean fault plan matches golden baseline" `Quick
          test_clean_fault_plan_matches_golden;
        Alcotest.test_case "four-mode sweep matches golden" `Quick
          test_four_mode_sweep_matches_golden;
        Alcotest.test_case "observatory run matches golden baseline" `Quick
          test_observatory_zero_overhead;
        Alcotest.test_case "observatory series deterministic" `Quick
          test_observatory_series_deterministic;
        Alcotest.test_case "observatory channels populated" `Quick
          test_observatory_channels_populated;
        Alcotest.test_case "probe table feeds sinks" `Quick
          test_probe_table_coverage;
        Alcotest.test_case "window totals rebase at reset" `Quick
          test_window_totals_rebase;
        Alcotest.test_case "tracing is zero-overhead" `Quick test_tracing_zero_overhead;
        Alcotest.test_case "initial database loaded once" `Quick
          test_initial_database_loaded_once;
        Alcotest.test_case "bookkeeping balances on every exit" `Quick
          test_bookkeeping_balances;
      ] );
    ( "core.certifier",
      [
        Alcotest.test_case "conflict window" `Quick test_certifier_conflict_window;
        Alcotest.test_case "prune and replay" `Quick test_certifier_prune_and_replay;
        Alcotest.test_case "decision counters" `Quick test_certifier_decisions_counter;
      ] );
    ( "core.metrics",
      [ Alcotest.test_case "accounting" `Quick test_metrics_accounting ] );
    ( "core.load_balancer",
      [
        Alcotest.test_case "least-active routing" `Quick test_load_balancer_least_active;
        Alcotest.test_case "routing policies" `Quick test_load_balancer_policies;
        Alcotest.test_case "fine-grained table versions" `Quick test_fine_table_versions;
      ] );
  ]
