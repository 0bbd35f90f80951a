(* Tests for the experiments library: Table I exactness, report and plot
   rendering, and a smoke run of the shared experiment driver. *)

let test_table1_exact () =
  (* The paper's Table I, row by row. *)
  let rows = Experiments.Table1.rows () in
  let expect =
    [
      ("T1", 1, 1, 0, 0);
      ("T2", 2, 1, 2, 2);
      ("T3", 3, 1, 3, 2);
      ("T4", 4, 1, 3, 4);
      ("T5", 5, 1, 5, 5);
      ("T6", 6, 6, 5, 5);
    ]
  in
  List.iter2
    (fun row (txn, vs, va, vb, vc) ->
      Alcotest.(check string) "txn" txn row.Experiments.Table1.txn;
      Alcotest.(check int) (txn ^ " V_system") vs row.Experiments.Table1.v_system;
      Alcotest.(check int) (txn ^ " V_A") va row.Experiments.Table1.v_a;
      Alcotest.(check int) (txn ^ " V_B") vb row.Experiments.Table1.v_b;
      Alcotest.(check int) (txn ^ " V_C") vc row.Experiments.Table1.v_c)
    rows expect

let test_table1_start_versions () =
  Alcotest.(check int) "fine-grained start for {A} after T5" 1
    (Experiments.Table1.fine_start_for_a ());
  Alcotest.(check int) "coarse-grained start after T5" 5
    (Experiments.Table1.coarse_start_after_t5 ())

let test_report_table () =
  let s =
    Experiments.Report.table ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yyy"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has header + rule + rows" true (List.length lines >= 4);
  (* All non-empty lines are equally wide. *)
  let widths =
    List.filter_map
      (fun l -> if String.length l = 0 then None else Some (String.length l))
      lines
  in
  Alcotest.(check bool) "aligned columns" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_report_fmt () =
  Alcotest.(check string) "large" "123" (Experiments.Report.fmt_f 123.4);
  Alcotest.(check string) "medium" "12.3" (Experiments.Report.fmt_f 12.34);
  Alcotest.(check string) "small" "1.23" (Experiments.Report.fmt_f 1.234)

let test_plot_renders () =
  let s =
    Experiments.Plot.chart ~width:20 ~height:6
      ~series:[ ("up", [ (0.0, 0.0); (1.0, 1.0); (2.0, 2.0) ]) ]
      ()
  in
  Alcotest.(check bool) "chart non-empty" true (String.length s > 100);
  Alcotest.(check bool) "marker present" true (String.contains s '*');
  Alcotest.(check bool) "legend present" true
    (String.length s >= 4
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> l = "  *=up") lines)

let test_plot_empty () =
  Alcotest.(check string) "no data placeholder" "(no data)\n"
    (Experiments.Plot.chart ~series:[ ("e", []) ] ())

(* A point of the shared driver at miniature micro-benchmark size. *)
let tiny_point ?(config = Core.Config.default) ?(update_types = 1) ?(rows = 200)
    ?(warmup_ms = 200.0) ?(measure_ms = 1_000.0) ~seed mode =
  {
    Experiments.Runner.mode;
    workload = Micro { Workload.Microbench.tables = 4; rows; update_types };
    replicas = 2;
    clients = 8;
    warmup_ms;
    measure_ms;
    seed;
    config = { config with gc_interval_ms = 0.0 };
    arrival = Closed;
    faults = None;
    drain = false;
  }

let test_runner_smoke () =
  (* A miniature end-to-end experiment through the shared driver. *)
  let s =
    match Experiments.Runner.run [ tiny_point ~seed:1 Core.Consistency.Coarse ] with
    | [ s ] -> s
    | l -> Alcotest.failf "expected 1 summary, got %d" (List.length l)
  in
  Alcotest.(check bool) "throughput positive" true (s.Experiments.Runner.tps > 100.0);
  Alcotest.(check bool) "response positive" true (s.Experiments.Runner.response_ms > 0.0);
  Alcotest.(check bool) "p99 at least the mean" true
    (s.Experiments.Runner.p99_ms >= s.Experiments.Runner.response_ms);
  Alcotest.(check int) "clients recorded" 8 s.Experiments.Runner.clients;
  Alcotest.(check int) "replicas recorded" 2 s.Experiments.Runner.replicas

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec probe i = i + nl <= sl && (String.sub s i nl = needle || probe (i + 1)) in
  probe 0

let test_ablation_rows_shape () =
  let pair routing tps =
    ( tiny_point ~config:{ Core.Config.default with routing } ~seed:1 Core.Consistency.Coarse,
      {
        Experiments.Runner.mode = Core.Consistency.Coarse;
        replicas = 2;
        clients = 8;
        tps;
        response_ms = 2.0;
        p50_ms = 1.5;
        p99_ms = 5.0;
        stage_ms = Array.make Core.Metrics.stage_count 0.0;
        stage_update_ms = Array.make Core.Metrics.stage_count 0.0;
        sync_delay_ms = 0.0;
        abort_rate = 0.0;
        committed = 1;
        aborted = 0;
        aborts_by_reason = [];
        totals = [];
        max_queue_depth = 0;
        outage_max_ms = 0.0;
        epoch = 0;
        lb_epoch = 0;
        tiers = [];
        logged = 0;
        violations = [];
        digest = "";
        zombie_commits = 0;
        wedged = false;
        drain_ms = 0.0;
        divergent_log_entries = 0;
      } )
  in
  let s =
    Experiments.Ablation.render Experiments.Ablation.Routing
      [ pair Core.Config.Least_active 1.0; pair Core.Config.Round_robin 3.0 ]
  in
  Alcotest.(check bool) "contains labels" true
    (List.for_all (contains s) [ "least-active (paper)"; "round-robin"; "TPS"; "p99_ms" ])

(* --- Report sparklines --- *)

let test_sparkline () =
  Alcotest.(check string) "empty series" "" (Experiments.Report.sparkline []);
  let s = Experiments.Report.sparkline [ 0.0; 4.0; 8.0 ] in
  Alcotest.(check int) "one char per value" 3 (String.length s);
  Alcotest.(check char) "zero renders blank" ' ' s.[0];
  Alcotest.(check char) "max renders the top level" '@' s.[2];
  (* A tiny nonzero value must stay visible. *)
  let t = Experiments.Report.sparkline [ 0.001; 8.0 ] in
  Alcotest.(check bool) "nonzero never blank" true (t.[0] <> ' ')

(* --- Chaos health-timeline artifact --- *)

let test_chaos_health_json_shape () =
  let p =
    Experiments.Chaos.point ~mode:Core.Consistency.Eager ~plan:Experiments.Runner.Clean
      ~seed:1 ~duration_ms:1_000.0 ()
  in
  let r = (p, Experiments.Runner.run_point p) in
  let doc =
    match
      Obs.Json.parse (Obs.Json.to_string (Experiments.Chaos.health_json [ r ]))
    with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "health artifact is not valid JSON: %s" e
  in
  Alcotest.(check (option (float 1e-9))) "versioned envelope" (Some 3.0)
    (Option.bind (Obs.Json.member "schema_version" doc) Obs.Json.to_float);
  match Option.bind (Obs.Json.member "runs" doc) Obs.Json.to_list with
  | Some [ run ] ->
    let str name = Option.bind (Obs.Json.member name run) Obs.Json.to_str in
    let num name = Option.bind (Obs.Json.member name run) Obs.Json.to_float in
    Alcotest.(check (option string)) "mode" (Some "eager") (str "mode");
    Alcotest.(check (option string)) "plan" (Some "clean") (str "plan");
    Alcotest.(check bool) "verdict serialized" true
      (Obs.Json.member "ok" run = Some (Obs.Json.Bool true));
    Alcotest.(check bool) "digest present" true (str "digest" <> None);
    Alcotest.(check bool) "election_safety covers duplicate versions" true
      (Obs.Json.member "duplicate_commit_versions" run = None
      && Option.bind (Obs.Json.member "violations" run) (Obs.Json.member "election_safety")
         <> None);
    Alcotest.(check bool) "drain time present" true
      (match num "wedge_drain_ms" with Some d -> d >= 0.0 | None -> false);
    let totals = Obs.Json.member "totals" run in
    let total name = Option.bind (Option.bind totals (Obs.Json.member name)) Obs.Json.to_float in
    Alcotest.(check (option (float 0.0))) "fault totals keyed by catalog name" (Some 0.0)
      (total "fault.drops");
    Alcotest.(check bool) "certifier decisions counted" true
      (match total "certifier.decisions" with Some n -> n > 0.0 | None -> false)
  | Some rs -> Alcotest.failf "expected 1 run object, got %d" (List.length rs)
  | None -> Alcotest.fail "no runs array"

(* --- Domain-pool run driver ------------------------------------------- *)

let test_map_jobs_order_and_results () =
  let items = List.init 23 Fun.id in
  let serial = List.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        serial
        (Experiments.Runner.map_jobs ~jobs (fun i -> i * i) items))
    [ 1; 2; 4; 8 ]

(* The pool size is pure arithmetic, so its ceiling is checked without
   starting a domain: one per further item, one per recommended core
   beyond the caller's, never negative. *)
let test_spawn_count () =
  let spawn jobs items recommended =
    Experiments.Runner.spawn_count ~jobs ~items ~recommended
  in
  Alcotest.(check int) "serial" 0 (spawn 1 100 8);
  Alcotest.(check int) "jobs bound" 3 (spawn 4 100 8);
  Alcotest.(check int) "item bound" 2 (spawn 8 3 8);
  Alcotest.(check int) "no items" 0 (spawn 8 0 8);
  Alcotest.(check int) "recommended bound" 7 (spawn 1_000_000 1_000_000 8);
  Alcotest.(check int) "single core" 0 (spawn 4 100 1);
  Alcotest.(check int) "non-positive jobs" 0 (spawn (-5) 100 8)

let test_parallel_chaos_matrix_identical () =
  (* The tentpole's contract: every soak is one self-contained
     simulation, so the domain pool may only change wall-clock — the
     per-run runlog digests and the matrix result ordering must be
     bit-identical between [--jobs 1] and [--jobs 4]. *)
  let seeds = [ 3; 4 ] in
  let modes = [ Core.Consistency.Coarse; Core.Consistency.Session ] in
  let points =
    Experiments.Chaos.points ~modes ~plans:[ Experiments.Runner.Mixed ] ~seeds
      ~duration_ms:1_500.0 ()
  in
  let run jobs = List.combine points (Experiments.Runner.run ~jobs points) in
  let serial = run 1 and parallel = run 4 in
  Alcotest.(check int) "same matrix size" (List.length serial) (List.length parallel);
  Alcotest.(check (list string)) "plan, mode, seed order"
    [ "coarse/3"; "coarse/4"; "session/3"; "session/4" ]
    (List.map
       (fun ((p : Experiments.Runner.point), _) ->
         Printf.sprintf "%s/%d" (Core.Consistency.to_string p.mode) p.seed)
       serial);
  List.iter2
    (fun ((a : Experiments.Runner.point), (sa : Experiments.Runner.summary))
         ((b : Experiments.Runner.point), (sb : Experiments.Runner.summary)) ->
      Alcotest.(check string) "seed matrix order preserved"
        (Printf.sprintf "%s/%d" (Core.Consistency.to_string a.mode) a.seed)
        (Printf.sprintf "%s/%d" (Core.Consistency.to_string b.mode) b.seed);
      Alcotest.(check string)
        (Printf.sprintf "digest identical for %s/%d" (Core.Consistency.to_string a.mode)
           a.seed)
        sa.digest sb.digest;
      Alcotest.(check int) "commit counts identical" sa.committed sb.committed)
    serial parallel

let test_point_list_identical_across_jobs () =
  (* The point table's contract: a point list gives the same summaries,
     and so the same rendered table, at any pool size. *)
  let points =
    List.concat_map
      (fun update_types ->
        List.concat_map
          (fun mode ->
            List.map
              (fun config -> tiny_point ~config ~update_types ~seed:7 mode)
              [ Core.Config.default; Core.Config.batched Core.Config.default ])
          [ Core.Consistency.Coarse; Core.Consistency.Eager ])
      [ 0; 2 ]
  in
  (* Beside the figure points: a chaos-plan point (faults, schedule and
     drain, record_log on) and an open-loop point. *)
  let extra =
    [
      Experiments.Chaos.point ~mode:Core.Consistency.Fine ~plan:Experiments.Runner.Mixed
        ~seed:5 ~duration_ms:1_000.0 ();
      {
        (tiny_point ~seed:7 Core.Consistency.Coarse) with
        Experiments.Runner.arrival = Open 2_000.0;
      };
    ]
  in
  let serial = Experiments.Runner.run ~jobs:1 (points @ extra)
  and parallel = Experiments.Runner.run ~jobs:2 (points @ extra) in
  Alcotest.(check bool) "summaries equal" true (compare serial parallel = 0);
  (match List.rev serial with
  | open_loop :: chaos :: _ ->
    Alcotest.(check bool) "chaos point logged and drained" true
      (chaos.Experiments.Runner.logged > 0
      && chaos.Experiments.Runner.digest <> ""
      && Experiments.Runner.total chaos "fault.drops" > 0
      && not chaos.Experiments.Runner.wedged);
    Alcotest.(check bool) "open-loop point committed" true
      (open_loop.Experiments.Runner.committed > 0)
  | _ -> Alcotest.fail "missing summaries");
  (* In the batching sweep's order: baseline, then batched, per cell. *)
  let artifact = { Experiments.Runner.points; render = Experiments.Batch.render } in
  let batch = List.filteri (fun i _ -> i < List.length points) serial in
  Alcotest.(check (list string)) "rendered tables byte-equal"
    [ Experiments.Batch.render (List.combine points batch) ]
    (Experiments.Runner.render_all ~jobs:2 [ artifact ])

(* The gating battery per mode, pinned by name and order. *)
let test_gating_battery () =
  let always =
    [
      "first_committer_wins";
      "epoch_fencing";
      "election_safety";
      "lb_floor_preservation";
      "tier_bounded_staleness";
      "tier_causal_ryw";
      "tier_monotone_reads";
    ]
  in
  List.iter
    (fun (mode, own) ->
      Alcotest.(check (list string))
        (Core.Consistency.to_string mode)
        (always @ own) (Experiments.Runner.gating mode))
    [
      (Core.Consistency.Eager, [ "strong_consistency" ]);
      (Core.Consistency.Coarse, [ "strong_consistency" ]);
      (Core.Consistency.Fine, [ "fine_strong_consistency" ]);
      (Core.Consistency.Session, [ "session_consistency"; "monotone_session_snapshots" ]);
      (Core.Consistency.Bounded 3, [ "bounded_staleness" ]);
    ]

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "Table I rows exact" `Quick test_table1_exact;
        Alcotest.test_case "Table I start versions" `Quick test_table1_start_versions;
        Alcotest.test_case "report table" `Quick test_report_table;
        Alcotest.test_case "report fmt" `Quick test_report_fmt;
        Alcotest.test_case "plot renders" `Quick test_plot_renders;
        Alcotest.test_case "plot empty" `Quick test_plot_empty;
        Alcotest.test_case "runner smoke" `Quick test_runner_smoke;
        Alcotest.test_case "ablation render" `Quick test_ablation_rows_shape;
        Alcotest.test_case "sparkline" `Quick test_sparkline;
        Alcotest.test_case "map_jobs order across pool sizes" `Quick
          test_map_jobs_order_and_results;
        Alcotest.test_case "map_jobs spawns at most the recommended domains" `Quick
          test_spawn_count;
        Alcotest.test_case "chaos matrix digests identical at -j 4" `Quick
          test_parallel_chaos_matrix_identical;
        Alcotest.test_case "point list identical at -j 2" `Quick
          test_point_list_identical_across_jobs;
        Alcotest.test_case "chaos health artifact shape" `Quick
          test_chaos_health_json_shape;
        Alcotest.test_case "gating battery per mode" `Quick test_gating_battery;
      ] );
  ]
