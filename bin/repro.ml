(* repro — command-line driver for the replicated-database reproduction.

   Subcommands regenerate each table/figure of the paper, run the
   consistency validator, or run the ablation benchmarks. *)

open Cmdliner

let quick_arg =
  let doc = "Smaller sweeps and shorter measurement windows." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let seed_arg =
  let doc = "Simulation seed." in
  Arg.(value & opt int Core.Config.default.Core.Config.seed & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Run up to $(docv) independent simulations in parallel (one OCaml domain \
     each). Every run stays single-threaded and bit-deterministic; results and \
     output come back in the same order as $(b,--jobs 1)."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* The flags every artifact command shares. *)
type common = { quick : bool; seed : int; jobs : int }

let common_term =
  Term.(
    const (fun quick seed jobs -> { quick; seed; jobs }) $ quick_arg $ seed_arg $ jobs_arg)

let with_seed seed config = { config with Core.Config.seed }

(* Range-checked converters: an out-of-range value is a usage error
   (exit 124) before anything is built or run. *)
let checked conv ~ok ~expect =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when ok x -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%s must be %s" s expect))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

(* [Arg.float], shown as [%g] in --help: "2", not "2.". *)
let float_g = Arg.conv (Arg.conv_parser Arg.float, fun ppf -> Format.fprintf ppf "%g")

let positive_int = checked Arg.int ~ok:(fun n -> n > 0) ~expect:"> 0"
let positive_float = checked float_g ~ok:(fun x -> x > 0.0) ~expect:"> 0"
let non_negative_float = checked float_g ~ok:(fun x -> x >= 0.0) ~expect:">= 0"

let mode_conv =
  Arg.conv'
    ( (fun s -> Core.Consistency.of_string (String.trim s)),
      fun ppf m -> Format.pp_print_string ppf (Core.Consistency.to_string m) )

(* --- the experiment point table ---

   Every table and figure is an artifact: a pinned point list and the
   renderer of its results. A command runs the points of all its
   artifacts in one --jobs pool and prints each table in order. *)

module type ARTIFACT = sig
  val points : quick:bool -> seed:int -> Experiments.Runner.point list

  val render :
    (Experiments.Runner.point * Experiments.Runner.summary) list -> string
end

let artifact (module A : ARTIFACT) c =
  { Experiments.Runner.points = A.points ~quick:c.quick ~seed:c.seed; render = A.render }

let table1 =
  { Experiments.Runner.points = []; render = (fun _ -> Experiments.Table1.render ()) }

let ablations which c =
  List.map
    (fun t ->
      {
        Experiments.Runner.points = Experiments.Ablation.points ~quick:c.quick ~seed:c.seed t;
        render = Experiments.Ablation.render t;
      })
    which

let batch_artifact ?config ?batched ?clients c =
  {
    Experiments.Runner.points =
      Experiments.Batch.points ~quick:c.quick ~seed:c.seed ?config ?batched ?clients ();
    render = Experiments.Batch.render;
  }

let print_artifacts c artifacts =
  List.iter print_string (Experiments.Runner.render_all ~jobs:c.jobs artifacts)

let artifact_cmd name ~doc artifacts =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun c -> print_artifacts c (artifacts c)) $ common_term)

let table1_cmd =
  artifact_cmd "table1" ~doc:"Reproduce Table I (database and table versions)" (fun _ ->
      [ table1 ])

let fig3_cmd =
  artifact_cmd "fig3" ~doc:"Reproduce Figure 3 (micro-benchmark throughput)" (fun c ->
      [ artifact (module Experiments.Fig3) c ])

let fig4_cmd =
  artifact_cmd "fig4" ~doc:"Reproduce Figure 4 (latency breakdown, 25% and 100% updates)"
    (fun c -> [ artifact (module Experiments.Fig4) c ])

let fig5_cmd =
  artifact_cmd "fig5" ~doc:"Reproduce Figures 5 and 6 (TPC-W scaled load)" (fun c ->
      [ artifact (module Experiments.Fig5) c ])

let fig7_cmd =
  artifact_cmd "fig7" ~doc:"Reproduce Figure 7 (TPC-W fixed load response time)" (fun c ->
      [ artifact (module Experiments.Fig7) c ])

(* --- shapes: the paper-shape gate --- *)

let shapes c =
  let failed = ref false in
  print_artifacts c
    [
      {
        Experiments.Runner.points = Experiments.Shapes.points ~quick:c.quick ~seed:c.seed;
        render =
          (fun pairs ->
            let checks = Experiments.Shapes.evaluate pairs in
            failed := Experiments.Shapes.failed checks;
            Experiments.Shapes.render checks);
      };
    ];
  if !failed then exit 1

let shapes_cmd =
  Cmd.v
    (Cmd.info "shapes"
       ~doc:
         "Check the paper's shape claims on Figures 3, 4 and 7: print each measured value \
          beside the claim and exit 1 when a shape is lost")
    Term.(const shapes $ common_term)

let ycsb_cmd =
  artifact_cmd "ycsb" ~doc:"Run the YCSB extension workload across configurations"
    (fun c -> [ artifact (module Experiments.Ycsb) c ])

let tpcc_cmd =
  artifact_cmd "tpcc" ~doc:"Run the TPC-C extension workload across configurations"
    (fun c -> [ artifact (module Experiments.Tpcc) c ])

(* --- batch: group certification / parallel apply sweep --- *)

let cert_batch_arg =
  let doc = "Certification batch cap used by the batched arm of the sweep." in
  Arg.(value & opt int 8 & info [ "cert-batch" ] ~docv:"N" ~doc)

let apply_parallelism_arg =
  let doc =
    "Refresh-apply lanes per replica used by the batched arm of the sweep \
     (default: cpus per replica)."
  in
  Arg.(value & opt (some int) None & info [ "apply-parallelism" ] ~docv:"N" ~doc)

let clients_arg =
  let doc = "Closed-loop clients driving the sweep." in
  Arg.(value & opt positive_int 160 & info [ "clients" ] ~docv:"N" ~doc)

let costs_arg =
  let doc =
    "Cost model for the sweep: $(b,micro) (the fig-3 micro-benchmark costs, \
     execution-bound), $(b,tpcw) (the TPC-W costs), or $(b,reexec) (micro costs \
     with refresh application priced like statement re-execution, as in the \
     `apply' ablation — the regime where writeset application is the throughput \
     ceiling)."
  in
  Arg.(value & opt (enum [ ("micro", `Micro); ("tpcw", `Tpcw); ("reexec", `Reexec) ]) `Micro
       & info [ "costs" ] ~docv:"MODEL" ~doc)

let batch c cert_batch apply_parallelism clients costs =
  let config =
    match costs with
    | `Micro -> Core.Config.default
    | `Tpcw -> Core.Config.tpcw
    | `Reexec -> Experiments.Ablation.reexec Core.Config.default
  in
  let batched config =
    let b = Core.Config.batched config in
    {
      b with
      Core.Config.cert_batch;
      apply_parallelism =
        Option.value apply_parallelism ~default:b.Core.Config.apply_parallelism;
    }
  in
  match Core.Config.validate (batched config) with
  | Error msg -> `Error (true, msg)
  | Ok () ->
    print_artifacts c [ batch_artifact ~config ~batched ~clients c ];
    `Ok ()

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Measure group certification + conflict-aware parallel refresh apply \
          against the unbatched pipeline")
    Term.(
      ret
        (const batch $ common_term $ cert_batch_arg $ apply_parallelism_arg $ clients_arg
        $ costs_arg))

(* --- ablations --- *)

let ablation_cmd =
  let which =
    let doc = "Which ablation: apply, span, early-cert, routing, or all." in
    let names =
      Experiments.Ablation.
        [
          ("apply", [ Apply ]); ("span", [ Span ]); ("early-cert", [ Early_cert ]);
          ("routing", [ Routing ]); ("all", all);
        ]
    in
    Arg.(value & pos 0 (enum names) Experiments.Ablation.all & info [] ~docv:"NAME" ~doc)
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run the design-choice ablation benchmarks")
    Term.(const (fun which c -> print_artifacts c (ablations which c)) $ which $ common_term)

(* --- check: consistency validation of live runs --- *)

let check_artifact seed =
  let params = { Workload.Microbench.tables = 8; rows = 500; update_types = 4 } in
  let config =
    { Core.Config.default with Core.Config.record_log = true; gc_interval_ms = 0.0 }
  in
  let point mode =
    {
      Experiments.Runner.mode;
      workload = Micro params;
      replicas = 4;
      clients = 24;
      warmup_ms = 300.0;
      measure_ms = 5_000.0;
      seed;
      config;
      arrival = Closed;
      faults = None;
      drain = false;
    }
  in
  let row (_, (s : Experiments.Runner.summary)) =
    let v name = List.assoc name s.violations in
    Printf.sprintf "%-8s %9d %8d %8d %8d %8d\n"
      (Core.Consistency.to_string s.mode)
      s.logged (v "strong_consistency") (v "fine_strong_consistency")
      (v "session_consistency") (v "first_committer_wins")
  in
  let render pairs =
    "Running each configuration for 5s of virtual time with logging on...\n\n"
    ^ Printf.sprintf "%-8s %9s %8s %8s %8s %8s\n" "mode" "txns" "strong" "tableset"
        "session" "wwconf"
    ^ String.concat "" (List.map row pairs)
    ^ "\nExpected: eager/coarse have 0 everywhere; fine has 0 in tableset/wwconf;\n\
       session has 0 in session/wwconf but may be non-zero in strong (it is weaker).\n"
  in
  { Experiments.Runner.points = List.map point Core.Consistency.all; render }

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Validate the consistency guarantees of each configuration on live runs")
    Term.(
      const (fun seed jobs ->
          print_artifacts { quick = false; seed; jobs } [ check_artifact seed ])
      $ seed_arg $ jobs_arg)

(* --- chaos: seeded fault-schedule soak --- *)

let chaos seeds seed_count duration plan modes tiers cert_standbys ack_quorum voter_lease
    lb_standby verify_digest health_file offered_tps protections jobs =
  (* Control-plane knob overrides ride on the soak's own default
     config, and go through Config.validate so a contradictory
     combination fails here with a message instead of deep in a run. *)
  let config =
    match (cert_standbys, ack_quorum, voter_lease, lb_standby) with
    | None, None, None, false -> Ok None
    | _ ->
      let c =
        Experiments.Chaos.default_config
          ~seed:Core.Config.default.Core.Config.seed
      in
      let c =
        {
          c with
          Core.Config.certifier_standbys =
            Option.value cert_standbys ~default:c.Core.Config.certifier_standbys;
          standby_ack_quorum =
            Option.value ack_quorum ~default:c.Core.Config.standby_ack_quorum;
          voter_lease_ms =
            Option.value voter_lease ~default:c.Core.Config.voter_lease_ms;
          lb_standby = lb_standby || c.Core.Config.lb_standby;
        }
      in
      (match Core.Config.validate c with
      | Ok () -> Ok (Some c)
      | Error e -> Error e)
  in
  let seeds =
    match seeds with
    | [] -> List.init (max 0 seed_count) (fun i -> 1 + i)
    | seeds -> seeds
  in
  match config with
  | Error e -> `Error (false, e)
  | Ok _ when modes = [] -> `Error (false, "no consistency modes selected")
  | Ok _ when seeds = [] ->
    `Error (false, "empty seed matrix: pass --seeds N with N > 0, or --seed-list")
  | Ok config ->
    let duration_ms = duration *. 1000.0 in
    Printf.printf "Chaos soak: plan=%s%s, %d seed(s) x %d mode(s), %.1fs virtual each\n\n"
      (Experiments.Runner.plan_name plan)
      (if tiers then " (mixed-tier reads)" else "")
      (List.length seeds) (List.length modes) duration;
    let points =
      Experiments.Chaos.points ?config ~tiers ~protections ~offered_tps ~modes
        ~plans:[ plan ] ~seeds ~duration_ms ()
    in
    let results = List.combine points (Experiments.Runner.run ~jobs points) in
    List.iter (fun r -> Format.printf "%a@." Experiments.Chaos.pp_result r) results;
    (match health_file with
    | None -> ()
    | Some file ->
      Experiments.Chaos.write_health results ~file;
      Printf.printf "\nwrote health timeline to %s\n" file);
    let failed = List.filter (fun r -> not (Experiments.Chaos.ok r)) results in
    let digest_ok =
      if verify_digest then begin
        (* Re-run the first point and demand a byte-identical runlog:
           the whole stack, faults included, is deterministic. *)
        let p, s = List.hd results in
        let same = String.equal s.digest (Experiments.Runner.run_point p).digest in
        Printf.printf "\ndigest reproducibility (%s, seed %d): %s\n"
          (Core.Consistency.to_string p.mode)
          p.seed
          (if same then "identical" else "DIVERGED");
        same
      end
      else true
    in
    Printf.printf "\n%d/%d runs ok\n" (List.length results - List.length failed)
      (List.length results);
    if failed = [] && digest_ok then `Ok ()
    else `Error (false, "chaos soak found violations")

let chaos_seeds_arg =
  let doc = "Explicit seed list (repeatable); overrides $(b,--seeds)." in
  Arg.(value & opt_all int [] & info [ "seed-list" ] ~docv:"SEED" ~doc)

let chaos_seed_count_arg =
  let doc = "Number of consecutive seeds (starting at 1) to soak." in
  Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"N" ~doc)

let chaos_duration_arg =
  let doc = "Virtual seconds per run (faults all heal by 75%% of it)." in
  Arg.(value & opt positive_float 2.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)

let chaos_plan_arg =
  let doc =
    "Fault plan: clean, lossy, partitions, gray, mixed, cert-failover, control-plane \
     or overload (open-loop metastable-failure reproduction)."
  in
  let plans =
    List.map (fun p -> (Experiments.Runner.plan_name p, p)) Experiments.Runner.plans
  in
  Arg.(value & opt (enum plans) Experiments.Runner.Mixed & info [ "plan" ] ~docv:"PLAN" ~doc)

let chaos_cert_standbys_arg =
  let doc = "Certifier standbys (overrides the soak default config)." in
  Arg.(value & opt (some int) None & info [ "cert-standbys" ] ~docv:"N" ~doc)

let chaos_ack_quorum_arg =
  let doc =
    "Standby replication ack quorum: 0 = all caught-up standbys, else the count of \
     standby acks a commit waits for."
  in
  Arg.(value & opt (some int) None & info [ "ack-quorum" ] ~docv:"N" ~doc)

let chaos_voter_lease_arg =
  let doc =
    "Voter lease in virtual ms: a silent un-caught-up standby is demoted out of the \
     ack quorum after this long (0 disables; the control-plane plan forces 100ms \
     when unset)."
  in
  Arg.(value & opt (some float) None & info [ "voter-lease" ] ~docv:"MS" ~doc)

let chaos_lb_standby_arg =
  let doc = "Run a standby load balancer with heartbeat-driven takeover." in
  Arg.(value & flag & info [ "lb-standby" ] ~doc)

let chaos_modes_arg =
  let doc = "Comma-separated consistency modes." in
  Arg.(
    value
    & opt (list mode_conv) Core.Consistency.all
    & info [ "modes" ] ~docv:"MODES" ~doc)

let chaos_tiers_arg =
  let doc =
    "Drive the mixed-tier read workload (strong/bounded/causal/eventual reads) with \
     read-tier routing enabled, so the per-class contract checkers are exercised \
     under the fault plan."
  in
  Arg.(value & flag & info [ "tiers" ] ~doc)

let chaos_no_digest_arg =
  let doc = "Skip the double-run digest reproducibility check." in
  Arg.(value & flag & info [ "no-digest-check" ] ~doc)

let chaos_offered_arg =
  let doc =
    "Aggregate open-loop arrival rate for the overload plan, in offered \
     transactions/second (ignored by the closed-loop plans)."
  in
  Arg.(value & opt positive_float 6_000.0 & info [ "offered-tps" ] ~docv:"TPS" ~doc)

let chaos_no_protections_arg =
  let doc =
    "Overload plan only: leave every overload-protection knob off — the control arm \
     that demonstrates the metastable collapse (the soak is expected to FAIL its \
     shed requirement)."
  in
  Arg.(value & flag & info [ "no-protections" ] ~doc)

let chaos_health_arg =
  let doc =
    "Write the per-run health timeline (faults injected, detector and HA events, \
     violation counts, wedge-drain time, digest) as JSON to $(docv); CI uploads it \
     as an artifact when a soak fails."
  in
  Arg.(value & opt (some string) None & info [ "health-json" ] ~docv:"FILE" ~doc)

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak the hardened protocol under a seeded fault schedule and check \
          consistency, liveness and reproducibility")
    Term.(
      ret
        (const (fun seeds n d p m t cs aq vl lbs nd hf otps noprot jobs ->
             chaos seeds n d p m t cs aq vl lbs (not nd) hf otps (not noprot) jobs)
        $ chaos_seeds_arg $ chaos_seed_count_arg $ chaos_duration_arg $ chaos_plan_arg
        $ chaos_modes_arg $ chaos_tiers_arg $ chaos_cert_standbys_arg
        $ chaos_ack_quorum_arg $ chaos_voter_lease_arg $ chaos_lb_standby_arg
        $ chaos_no_digest_arg $ chaos_health_arg $ chaos_offered_arg
        $ chaos_no_protections_arg $ jobs_arg))

(* --- overload: open-loop offered-rate sweep --- *)

let overload rates mode protect seed clients duration warmup json_file jobs =
  if rates = [] then `Error (false, "empty rate list")
  else begin
    (* The protected arm arms [Config.protected], the stack the chaos
       overload soak uses, so the sweep's plateau and the soak's
       recovery claim are about one configuration. *)
    let config =
      let c = with_seed seed (Experiments.Chaos.default_config ~seed) in
      if protect then Core.Config.protected c else c
    in
    Printf.printf "Open-loop sweep: mode=%s, %d rate(s), %.1fs measured, protections %s\n\n"
      (Core.Consistency.to_string mode)
      (List.length rates) duration
      (if protect then "ON" else "off");
    let points =
      Experiments.Overload.points ~config ~clients ~mode ~rates
        ~warmup_ms:(warmup *. 1000.0) ~measure_ms:(duration *. 1000.0) ()
    in
    let pairs = List.combine points (Experiments.Runner.run ~jobs points) in
    List.iter (fun r -> Format.printf "%a@." Experiments.Overload.pp_point r) pairs;
    match json_file with
    | None -> `Ok ()
    | Some file ->
      let out = open_out file in
      output_string out (Obs.Json.to_string (Experiments.Overload.sweep_json ~mode pairs));
      output_char out '\n';
      close_out out;
      Printf.printf "\nwrote sweep to %s\n" file;
      `Ok ()
  end

let overload_rates_arg =
  let doc = "Comma-separated offered arrival rates (aggregate tps) to sweep." in
  Arg.(
    value
    & opt (list positive_float) [ 1000.0; 2000.0; 4000.0; 8000.0; 12000.0; 16000.0 ]
    & info [ "rates" ] ~docv:"TPS,TPS,..." ~doc)

let overload_mode_arg =
  let doc = "Consistency mode for the sweep." in
  Arg.(value & opt mode_conv Core.Consistency.Coarse & info [ "mode" ] ~docv:"MODE" ~doc)

let overload_protect_arg =
  let doc =
    "Arm the overload-protection stack (admission control, bounded certifier \
     backlog, apply-lag governor, retry budget, deadlines) — the same knobs the \
     chaos overload soak uses. Off by default so the bare collapse is visible."
  in
  Arg.(value & flag & info [ "protect" ] ~doc)

let overload_clients_arg =
  let doc = "Open-loop generators the offered rate is split across." in
  Arg.(value & opt positive_int 16 & info [ "clients" ] ~docv:"N" ~doc)

let overload_duration_arg =
  let doc = "Measured virtual seconds per point." in
  Arg.(value & opt positive_float 2.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)

let overload_warmup_arg =
  let doc = "Warmup virtual seconds per point (excluded from the measurement)." in
  Arg.(value & opt non_negative_float 0.5 & info [ "warmup" ] ~docv:"SECONDS" ~doc)

let overload_json_arg =
  let doc = "Write the sweep points as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let overload_cmd =
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Sweep an open-loop offered-load range and report goodput, shedding, tail \
          latency and queue depth — the goodput-vs-offered-load curve, with or \
          without the overload-protection stack")
    Term.(
      ret
        (const overload $ overload_rates_arg $ overload_mode_arg $ overload_protect_arg
        $ seed_arg $ overload_clients_arg $ overload_duration_arg $ overload_warmup_arg
        $ overload_json_arg $ jobs_arg))

(* --- tiers: read-tier latency/staleness frontier --- *)

let tiers { quick; seed; jobs } clients =
  (* --quick trims sweep points, not measurement windows: each point is
     an independent cluster run, so the quick rows are bit-identical to
     the same rows of the full sweep, and the latency-ordering check
     stays out of short-window noise. *)
  let bounds = if quick then [ 0; 8; 32 ] else Experiments.Tiers.default_bounds in
  let points =
    Experiments.Tiers.points ~clients ~bounds ~seed ~warmup_ms:1_000.0 ~measure_ms:4_000.0 ()
  in
  let pairs = List.combine points (Experiments.Runner.run ~jobs points) in
  print_string (Experiments.Tiers.render pairs);
  if Experiments.Tiers.ok pairs then `Ok ()
  else begin
    let viol =
      List.fold_left (fun acc (_, s) -> acc + Experiments.Tiers.total_violations s) 0 pairs
    in
    `Error
      ( false,
        if viol > 0 then Printf.sprintf "%d read-tier contract violation(s)" viol
        else
          "latency ordering eventual < bounded < causal < strong did not hold at any \
           bound >= 8" )
  end

let tiers_clients_arg =
  let doc = "Closed-loop clients driving the sweep." in
  Arg.(value & opt positive_int 24 & info [ "clients" ] ~docv:"N" ~doc)

let tiers_cmd =
  Cmd.v
    (Cmd.info "tiers"
       ~doc:
         "Sweep the bounded-staleness lag bound and report per-read-tier latency and \
          served staleness (the latency-vs-staleness frontier), validating every tier \
          contract on the run log")
    Term.(ret (const tiers $ common_term $ tiers_clients_arg))

(* --- the instrumented demo run: report and the default command --- *)

let demo_mix = Workload.Tpcw.Shopping

(* A TPC-W shopping-mix run, fine mode, 4 replicas, 40 clients, with the
   run-health observatory attached. The think time is shorter than the
   benchmark default so the demo trace is dense enough to be
   interesting. [tune] adjusts the config; an invalid result is
   returned as a usage error before anything is built. *)
let demo_run ?(tracing = false) ~tune quick seed k =
  let config = tune { (with_seed seed Core.Config.tpcw) with Core.Config.replicas = 4 } in
  match Core.Config.validate config with
  | Error msg -> `Error (true, msg)
  | Ok () ->
    let warmup_ms, measure_ms = if quick then (500.0, 2_000.0) else (1_000.0, 5_000.0) in
    let params = { Workload.Tpcw.default with Workload.Tpcw.think_mean_ms = 300.0 } in
    let cluster =
      Core.Cluster.create ~config ~tracing ~mode:Core.Consistency.Fine
        ~schemas:Workload.Tpcw.schemas ~load:(Workload.Tpcw.load params) ()
    in
    for sid = 0 to 39 do
      Core.Client.spawn cluster ~sid ~rng:(Core.Cluster.rng cluster)
        (Workload.Tpcw.workload params demo_mix ~sid)
    done;
    let ts = Core.Cluster.start_observatory cluster in
    Core.Cluster.run_for cluster ~warmup_ms ~measure_ms;
    Core.Cluster.stop_observatory cluster ts;
    k cluster ts

let report quick seed window json_file =
  let tune c =
    match window with None -> c | Some w -> { c with Core.Config.obs_window_ms = w }
  in
  demo_run ~tune quick seed @@ fun cluster ts ->
  print_string
    (Experiments.Report.health
       ~title:
         (Printf.sprintf "run health: TPC-W %s mix, fine mode, seed %d, %.0fms windows"
          (Workload.Tpcw.mix_name demo_mix) seed (Obs.Timeseries.window_ms ts))
       ts);
  Format.printf "@.%a@." Core.Metrics.pp_summary (Core.Cluster.metrics cluster);
  Format.printf "@.Catalog (gauges now, nonzero window totals):@.%a@." Core.Cluster.pp_catalog
    cluster;
  match json_file with
  | None -> `Ok ()
  | Some file -> (
    try
      Obs.Export.write_timeseries ts ~file;
      Printf.printf "wrote time series to %s\n" file;
      `Ok ()
    with Sys_error e -> `Error (false, Printf.sprintf "cannot write %s: %s" file e))

let report_window_arg =
  let doc = "Observatory window span in virtual ms, > 0 (default: Config.obs_window_ms)." in
  Arg.(value & opt (some float) None & info [ "window" ] ~docv:"MS" ~doc)

let report_json_arg =
  let doc = "Also dump the windowed time series as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run an instrumented TPC-W demo with the run-health observatory on and \
          print the windowed health report (throughput, latency percentiles, \
          staleness, certifier and detector activity), the transaction summary and the \
          metric catalog")
    Term.(ret (const report $ quick_arg $ seed_arg $ report_window_arg $ report_json_arg))

let trace_file_arg =
  let doc =
    "Run an instrumented TPC-W demo and write its trace as Chrome trace-event JSON to \
     $(docv), with the observatory's windows as counter tracks (load it in \
     chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_run trace_file quick seed cert_batch apply_parallelism =
  match trace_file with
  | None -> `Help (`Pager, None)
  | Some file ->
    let tune c = { c with Core.Config.cert_batch; apply_parallelism } in
    demo_run ~tracing:true ~tune quick seed @@ fun cluster ts ->
    let m = Core.Cluster.metrics cluster in
    Printf.printf
      "TPC-W %s mix, fine mode, 4 replicas, 40 clients, %.1fs measured: %.0f TPS, %.2f \
       ms mean response\n"
      (Workload.Tpcw.mix_name demo_mix) (Core.Metrics.window_ms m /. 1000.0)
      (Core.Metrics.throughput_tps m) (Core.Metrics.mean_response_ms m);
    let trace = Option.get (Core.Cluster.trace cluster) in
    (try
       Obs.Export.write_chrome_trace ~timeseries:ts trace ~file;
       Printf.printf "Wrote %d spans (%d dropped) to %s\n" (Obs.Trace.length trace)
         (Obs.Trace.dropped trace) file;
       `Ok ()
     with Sys_error e -> `Error (false, Printf.sprintf "cannot write trace: %s" e))

let trace_cert_batch_arg =
  let doc = "Certification batch cap for the demo run (1 = unbatched)." in
  Arg.(value & opt int 1 & info [ "cert-batch" ] ~docv:"N" ~doc)

let trace_apply_parallelism_arg =
  let doc = "Refresh-apply lanes per replica for the demo run (1 = serial)." in
  Arg.(value & opt int 1 & info [ "apply-parallelism" ] ~docv:"N" ~doc)

let trace_term =
  Term.ret
    Term.(
      const trace_run $ trace_file_arg $ quick_arg $ seed_arg
      $ trace_cert_batch_arg $ trace_apply_parallelism_arg)

(* --- all --- *)

let all_cmd =
  artifact_cmd "all"
    ~doc:
      "Regenerate every table and figure plus the ablations, the batching sweep and the \
       TPC-C and YCSB extensions, in one --jobs pool"
    (fun c ->
      [
        table1;
        artifact (module Experiments.Fig3) c;
        artifact (module Experiments.Fig4) c;
        artifact (module Experiments.Fig5) c;
        artifact (module Experiments.Fig7) c;
      ]
      @ ablations Experiments.Ablation.all c
      @ [
          batch_artifact c;
          artifact (module Experiments.Tpcc) c;
          artifact (module Experiments.Ycsb) c;
        ])

let () =
  let doc = "Reproduction of 'Strongly consistent replication for a bargain' (ICDE 2010)" in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group ~default:trace_term info
      [
        table1_cmd; fig3_cmd; fig4_cmd; fig5_cmd; fig7_cmd; shapes_cmd; batch_cmd;
        ablation_cmd; ycsb_cmd; tpcc_cmd; check_cmd; chaos_cmd; overload_cmd; tiers_cmd;
        report_cmd;
        all_cmd;
      ]
  in
  exit (Cmd.eval group)
