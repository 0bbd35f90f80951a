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

let micro_windows quick =
  if quick then (1_000.0, 4_000.0) else (2_000.0, 8_000.0)

let tpcw_windows quick =
  if quick then (3_000.0, 10_000.0) else (5_000.0, 25_000.0)

let with_seed seed config = { config with Core.Config.seed }

(* --- table1 --- *)

let table1_cmd =
  let run () = print_string (Experiments.Table1.render ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table I (database and table versions)")
    Term.(const run $ const ())

(* --- fig3 --- *)

let fig3 quick seed =
  let warmup_ms, measure_ms = micro_windows quick in
  let update_points = if quick then [ 0; 10; 20; 40 ] else [ 0; 5; 10; 15; 20; 25; 30; 35; 40 ] in
  let params =
    if quick then { Workload.Microbench.default with rows = 2_000 }
    else Workload.Microbench.default
  in
  let points =
    Experiments.Fig3.run
      ~config:(with_seed seed Core.Config.default)
      ~params ~update_points ~warmup_ms ~measure_ms ()
  in
  print_string (Experiments.Fig3.render points)

let fig3_cmd =
  Cmd.v
    (Cmd.info "fig3" ~doc:"Reproduce Figure 3 (micro-benchmark throughput)")
    Term.(const fig3 $ quick_arg $ seed_arg)

(* --- fig4 --- *)

let fig4 quick seed =
  let warmup_ms, measure_ms = micro_windows quick in
  let params =
    if quick then { Workload.Microbench.default with rows = 2_000 }
    else Workload.Microbench.default
  in
  let results =
    Experiments.Fig4.run
      ~config:(with_seed seed Core.Config.default)
      ~params ~warmup_ms ~measure_ms ()
  in
  print_string (Experiments.Fig4.render results)

let fig4_cmd =
  Cmd.v
    (Cmd.info "fig4" ~doc:"Reproduce Figure 4 (latency breakdown, 25% and 100% updates)")
    Term.(const fig4 $ quick_arg $ seed_arg)

(* --- fig5 / fig6 (one scaled-load sweep feeds both) --- *)

let fig56 quick seed =
  let warmup_ms, measure_ms = tpcw_windows quick in
  let replica_counts = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let points =
    Experiments.Tpcw_sweep.scaled
      ~config:(with_seed seed Core.Config.tpcw)
      ~replica_counts ~warmup_ms ~measure_ms ()
  in
  print_string (Experiments.Fig5.render points);
  print_string (Experiments.Fig6.render points)

let fig5_cmd =
  Cmd.v
    (Cmd.info "fig5" ~doc:"Reproduce Figures 5 and 6 (TPC-W scaled load)")
    Term.(const fig56 $ quick_arg $ seed_arg)

(* --- fig7 --- *)

let fig7 quick seed =
  let warmup_ms, measure_ms = tpcw_windows quick in
  let replica_counts = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let points =
    Experiments.Tpcw_sweep.fixed
      ~config:(with_seed seed Core.Config.tpcw)
      ~replica_counts ~warmup_ms ~measure_ms ()
  in
  print_string (Experiments.Fig7.render points)

let fig7_cmd =
  Cmd.v
    (Cmd.info "fig7" ~doc:"Reproduce Figure 7 (TPC-W fixed load response time)")
    Term.(const fig7 $ quick_arg $ seed_arg)

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
  Arg.(value & opt int 160 & info [ "clients" ] ~docv:"N" ~doc)

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

let batch quick seed cert_batch apply_parallelism clients costs =
  let warmup_ms, measure_ms = micro_windows quick in
  let update_points = if quick then [ 0; 10; 20 ] else [ 0; 5; 10; 15; 20 ] in
  let params =
    if quick then { Workload.Microbench.default with rows = 2_000 }
    else Workload.Microbench.default
  in
  let config =
    match costs with
    | `Micro -> Core.Config.default
    | `Tpcw -> Core.Config.tpcw
    | `Reexec ->
      let c = Core.Config.default in
      {
        c with
        Core.Config.ws_apply_base_ms = c.Core.Config.stmt_base_ms +. c.Core.Config.commit_ms;
        ws_apply_row_ms = c.Core.Config.row_write_ms;
      }
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
  let points =
    Experiments.Batch_sweep.run ~config:(with_seed seed config) ~batched ~params
      ~clients ~update_points ~warmup_ms ~measure_ms ()
  in
  print_string (Experiments.Batch_sweep.render points)

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Measure group certification + conflict-aware parallel refresh apply \
          against the unbatched pipeline")
    Term.(
      const batch $ quick_arg $ seed_arg $ cert_batch_arg $ apply_parallelism_arg
      $ clients_arg $ costs_arg)

(* --- certindex: host cost of the certification conflict check --- *)

let certindex quick versions ws_rows jobs =
  let versions = if quick then min versions 2_000 else versions in
  let stalenesses =
    List.filter (fun s -> s <= versions) Experiments.Cert_index.default_stalenesses
  in
  let points = Experiments.Cert_index.run ~versions ~ws_rows ~stalenesses ~jobs () in
  print_string (Experiments.Cert_index.render points)

let certindex_cmd =
  let versions =
    let doc = "Committed versions in the certifier log fixture." in
    Arg.(value & opt int 10_000 & info [ "versions" ] ~docv:"N" ~doc)
  in
  let ws_rows =
    let doc = "Rows per writeset (both the committed and the probing ones)." in
    Arg.(value & opt int 4 & info [ "ws-rows" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "certindex"
       ~doc:
         "Measure the host CPU cost of Linear vs Keyed certification as the \
          requesting snapshot falls behind (the simulated protocol is \
          decision-identical either way)")
    Term.(const certindex $ quick_arg $ versions $ ws_rows $ jobs_arg)

(* --- ablations --- *)

let ablation which quick =
  let measure_ms = if quick then 3_000.0 else 6_000.0 in
  let run name =
    match name with
    | "apply" ->
      print_string
        (Experiments.Ablation.render ~title:"Ablation: writeset shipping vs re-execution"
           (Experiments.Ablation.apply_vs_reexec ~measure_ms ()))
    | "span" ->
      print_string
        (Experiments.Ablation.render ~title:"Ablation: table-set granularity"
           (Experiments.Ablation.table_span ~measure_ms ()))
    | "early-cert" ->
      print_string
        (Experiments.Ablation.render ~title:"Ablation: early certification"
           (Experiments.Ablation.early_certification ~measure_ms ()))
    | "routing" ->
      print_string
        (Experiments.Ablation.render ~title:"Ablation: load-balancer routing"
           (Experiments.Ablation.routing ~measure_ms ()))
    | other -> Printf.eprintf "unknown ablation %S\n" other
  in
  match which with
  | "all" -> List.iter run [ "apply"; "span"; "early-cert"; "routing" ]
  | name -> run name

let ablation_cmd =
  let which =
    let doc = "Which ablation: apply, span, early-cert, routing, or all." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"NAME" ~doc)
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run the design-choice ablation benchmarks")
    Term.(const ablation $ which $ quick_arg)

(* --- ycsb: the serving-benchmark extension --- *)

let ycsb seed =
  let params = Workload.Ycsb.default in
  let config =
    { (with_seed seed Core.Config.default) with Core.Config.replicas = 4 }
  in
  Printf.printf "YCSB on 4 replicas, 40 closed-loop clients, 10k records (zipf 0.99)\n\n";
  Printf.printf "%-7s %-8s %9s %9s %8s\n" "mix" "mode" "TPS" "resp(ms)" "abort%";
  List.iter
    (fun mix ->
      List.iter
        (fun mode ->
          let cluster =
            Core.Cluster.create ~config ~mode ~schemas:(Workload.Ycsb.schemas params)
              ~load:(Workload.Ycsb.load params)
              ()
          in
          Core.Client.spawn_many cluster ~n:40 ~first_sid:0
            (Workload.Ycsb.workload params mix);
          Core.Cluster.run_for cluster ~warmup_ms:1_000.0 ~measure_ms:4_000.0;
          let m = Core.Cluster.metrics cluster in
          Printf.printf "%-7s %-8s %9.0f %9.2f %8.2f\n%!" (Workload.Ycsb.mix_name mix)
            (Core.Consistency.to_string mode)
            (Core.Metrics.throughput_tps m) (Core.Metrics.mean_response_ms m)
            (100.0 *. Core.Metrics.abort_rate m))
        Core.Consistency.all;
      print_newline ())
    [ Workload.Ycsb.A; Workload.Ycsb.B; Workload.Ycsb.C; Workload.Ycsb.D;
      Workload.Ycsb.E; Workload.Ycsb.F ]

let ycsb_cmd =
  Cmd.v
    (Cmd.info "ycsb" ~doc:"Run the YCSB extension workload across configurations")
    Term.(const ycsb $ seed_arg)

(* --- tpcc: the TPC-C extension --- *)

let tpcc seed =
  (* 5 terminals per warehouse: optimistic certification turns the spec's
     hot rows (w_ytd, d_next_o_id) into write-write aborts, so contention
     is kept at the moderate end; the abort column shows what remains. *)
  let params = { Workload.Tpcc.default with Workload.Tpcc.warehouses = 8 } in
  let config = { (with_seed seed Core.Config.default) with Core.Config.replicas = 4 } in
  Printf.printf
    "TPC-C on 4 replicas, 40 paced terminals, %d warehouses x %d districts\n\n"
    params.Workload.Tpcc.warehouses params.Workload.Tpcc.districts_per_warehouse;
  Printf.printf "%-8s %9s %9s %8s %9s\n" "mode" "TPS" "resp(ms)" "abort%" "sync(ms)";
  List.iter
    (fun mode ->
      let cluster =
        Core.Cluster.create ~config ~mode ~schemas:Workload.Tpcc.schemas
          ~load:(Workload.Tpcc.load params)
          ()
      in
      Core.Client.spawn_many cluster ~n:40 ~first_sid:0
        {
          (Workload.Tpcc.workload params) with
          Core.Client.think_ms = Core.Client.exp_think ~mean_ms:100.0;
        };
      Core.Cluster.run_for cluster ~warmup_ms:1_000.0 ~measure_ms:6_000.0;
      let m = Core.Cluster.metrics cluster in
      Printf.printf "%-8s %9.0f %9.2f %8.2f %9.2f\n%!"
        (Core.Consistency.to_string mode)
        (Core.Metrics.throughput_tps m) (Core.Metrics.mean_response_ms m)
        (100.0 *. Core.Metrics.abort_rate m)
        (Core.Metrics.sync_delay_ms m))
    Core.Consistency.all;
  print_newline ();
  Printf.printf "Static SI analysis: %s\n"
    (if Check.Si_analysis.serializable_under_si Workload.Tpcc.profiles then
       "no dangerous structures — TPC-C runs serializably under GSI (as the paper notes)"
     else "dangerous structures found")

let tpcc_cmd =
  Cmd.v
    (Cmd.info "tpcc" ~doc:"Run the TPC-C extension workload across configurations")
    Term.(const tpcc $ seed_arg)

(* --- check: consistency validation of live runs --- *)

let check seed =
  let params = { Workload.Microbench.tables = 8; rows = 500; update_types = 4 } in
  let config =
    {
      Core.Config.default with
      Core.Config.seed;
      replicas = 4;
      record_log = true;
      gc_interval_ms = 0.0;
    }
  in
  Printf.printf "Running each configuration for 5s of virtual time with logging on...\n\n";
  Printf.printf "%-8s %9s %8s %8s %8s %8s\n" "mode" "txns" "strong" "tableset" "session"
    "wwconf";
  List.iter
    (fun mode ->
      let cluster =
        Core.Cluster.create ~config ~mode
          ~schemas:(Workload.Microbench.schemas params)
          ~load:(Workload.Microbench.load params)
          ()
      in
      Core.Client.spawn_many cluster ~n:24 ~first_sid:0
        (Workload.Microbench.workload params);
      Core.Cluster.run_for cluster ~warmup_ms:300.0 ~measure_ms:5_000.0;
      let log = Core.Cluster.records cluster in
      Printf.printf "%-8s %9d %8d %8d %8d %8d\n"
        (Core.Consistency.to_string mode)
        (List.length log)
        (List.length (Check.Runlog.strong_consistency log))
        (List.length (Check.Runlog.fine_strong_consistency log))
        (List.length (Check.Runlog.session_consistency log))
        (List.length (Check.Runlog.first_committer_wins log)))
    Core.Consistency.all;
  Printf.printf
    "\nExpected: eager/coarse have 0 everywhere; fine has 0 in tableset/wwconf;\n\
     session has 0 in session/wwconf but may be non-zero in strong (it is weaker).\n"

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Validate the consistency guarantees of each configuration on live runs")
    Term.(const check $ seed_arg)

(* --- chaos: seeded fault-schedule soak --- *)

let chaos seeds seed_count duration plan_str modes_str tiers cert_standbys ack_quorum
    voter_lease lb_standby verify_digest health_file offered_tps protections jobs =
  match Experiments.Chaos.plan_of_string plan_str with
  | Error e -> `Error (false, e)
  | Ok plan -> (
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
    match config with
    | Error e -> `Error (false, e)
    | Ok config -> (
    let modes =
      match modes_str with
      | None -> Ok Core.Consistency.all
      | Some s ->
        let parts = String.split_on_char ',' s in
        List.fold_left
          (fun acc m ->
            match (acc, Core.Consistency.of_string (String.trim m)) with
            | Error e, _ -> Error e
            | Ok ms, Ok m -> Ok (ms @ [ m ])
            | Ok _, Error e -> Error e)
          (Ok []) parts
    in
    match modes with
    | Error e -> `Error (false, e)
    | Ok modes when modes = [] -> `Error (false, "no consistency modes selected")
    | Ok modes ->
      let seeds =
        match seeds with
        | [] -> List.init (max 0 seed_count) (fun i -> 1 + i)
        | seeds -> seeds
      in
      if seeds = [] then
        `Error (false, "empty seed matrix: pass --seeds N with N > 0, or --seed-list")
      else
      let duration_ms = duration *. 1000.0 in
      Printf.printf "Chaos soak: plan=%s%s, %d seed(s) x %d mode(s), %.1fs virtual each\n\n"
        (Experiments.Chaos.plan_name plan)
        (if tiers then " (mixed-tier reads)" else "")
        (List.length seeds) (List.length modes) duration;
      let results =
        Experiments.Chaos.soak_matrix ?config ~tiers ~protections ~offered_tps ~modes
          ~plans:[ plan ] ~jobs ~seeds ~duration_ms ()
      in
      List.iter (fun r -> Format.printf "%a@." Experiments.Chaos.pp_result r) results;
      (match health_file with
      | None -> ()
      | Some file ->
        Experiments.Chaos.write_health results ~file;
        Printf.printf "\nwrote health timeline to %s\n" file);
      let failed = List.filter (fun r -> not (Experiments.Chaos.ok r)) results in
      let digest_ok =
        if verify_digest then begin
          (* Re-run the first combination and demand a byte-identical
             runlog: the whole stack, faults included, is deterministic. *)
          let mode = List.hd modes and seed = List.hd seeds in
          let _, same =
            Experiments.Chaos.reproducible ?config ~tiers ~protections ~offered_tps
              ~mode ~plan ~seed ~duration_ms ()
          in
          Printf.printf "\ndigest reproducibility (%s, seed %d): %s\n"
            (Core.Consistency.to_string mode)
            seed
            (if same then "identical" else "DIVERGED");
          same
        end
        else true
      in
      Printf.printf "\n%d/%d runs ok\n" (List.length results - List.length failed)
        (List.length results);
      if failed = [] && digest_ok then `Ok ()
      else `Error (false, "chaos soak found violations")))

let chaos_seeds_arg =
  let doc = "Explicit seed list (repeatable); overrides $(b,--seeds)." in
  Arg.(value & opt_all int [] & info [ "seed-list" ] ~docv:"SEED" ~doc)

let chaos_seed_count_arg =
  let doc = "Number of consecutive seeds (starting at 1) to soak." in
  Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"N" ~doc)

let chaos_duration_arg =
  let doc = "Virtual seconds per run (faults all heal by 75%% of it)." in
  Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)

let chaos_plan_arg =
  let doc =
    "Fault plan: clean, lossy, partitions, gray, mixed, cert-failover, control-plane \
     or overload (open-loop metastable-failure reproduction)."
  in
  Arg.(value & opt string "mixed" & info [ "plan" ] ~docv:"PLAN" ~doc)

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
  let doc = "Comma-separated consistency modes (default: all four)." in
  Arg.(value & opt (some string) None & info [ "modes" ] ~docv:"MODES" ~doc)

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
  Arg.(value & opt float 6_000.0 & info [ "offered-tps" ] ~docv:"TPS" ~doc)

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

let overload rates_str mode_str protect seed clients duration warmup json_file jobs =
  match Core.Consistency.of_string mode_str with
  | Error e -> `Error (false, e)
  | Ok mode -> (
    let rates =
      let parts = String.split_on_char ',' rates_str in
      List.fold_left
        (fun acc r ->
          match (acc, float_of_string_opt (String.trim r)) with
          | Error e, _ -> Error e
          | Ok _, None -> Error (Printf.sprintf "bad offered rate %S" (String.trim r))
          | Ok _, Some r when r <= 0.0 ->
            Error (Printf.sprintf "offered rate must be > 0 (got %g)" r)
          | Ok rs, Some r -> Ok (rs @ [ r ]))
        (Ok []) parts
    in
    match rates with
    | Error e -> `Error (false, e)
    | Ok [] -> `Error (false, "empty rate list")
    | Ok rates ->
      (* The protected arm arms the same stack the chaos overload soak
         uses, so the sweep's plateau and the soak's recovery claim are
         about one configuration. *)
      let config =
        let c = with_seed seed (Experiments.Chaos.default_config ~seed) in
        if protect then
          {
            c with
            Core.Config.admission_limit = 48;
            cert_queue_bound = 24;
            apply_lag_gap = 200;
            retry_budget = 6.0;
            retry_budget_per_s = 2.0;
            deadline_ms = 500.0;
          }
        else c
      in
      Printf.printf
        "Open-loop sweep: mode=%s, %d rate(s), %.1fs measured, protections %s\n\n"
        (Core.Consistency.to_string mode)
        (List.length rates) duration
        (if protect then "ON" else "off");
      let points =
        Experiments.Overload.sweep ~config ~clients ~jobs ~mode ~rates
          ~warmup_ms:(warmup *. 1000.0) ~measure_ms:(duration *. 1000.0) ()
      in
      List.iter (fun p -> Format.printf "%a@." Experiments.Overload.pp_point p) points;
      (match json_file with
      | None -> `Ok ()
      | Some file ->
        let out = open_out file in
        output_string out (Obs.Json.to_string (Experiments.Overload.sweep_json ~mode points));
        output_char out '\n';
        close_out out;
        Printf.printf "\nwrote sweep to %s\n" file;
        `Ok ()))

let overload_rates_arg =
  let doc = "Comma-separated offered arrival rates (aggregate tps) to sweep." in
  Arg.(
    value
    & opt string "1000,2000,4000,8000,12000,16000"
    & info [ "rates" ] ~docv:"TPS,TPS,..." ~doc)

let overload_mode_arg =
  let doc = "Consistency mode for the sweep." in
  Arg.(value & opt string "coarse" & info [ "mode" ] ~docv:"MODE" ~doc)

let overload_protect_arg =
  let doc =
    "Arm the overload-protection stack (admission control, bounded certifier \
     backlog, apply-lag governor, retry budget, deadlines) — the same knobs the \
     chaos overload soak uses. Off by default so the bare collapse is visible."
  in
  Arg.(value & flag & info [ "protect" ] ~doc)

let overload_clients_arg =
  let doc = "Open-loop generators the offered rate is split across." in
  Arg.(value & opt int 16 & info [ "clients" ] ~docv:"N" ~doc)

let overload_duration_arg =
  let doc = "Measured virtual seconds per point." in
  Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)

let overload_warmup_arg =
  let doc = "Warmup virtual seconds per point (excluded from the measurement)." in
  Arg.(value & opt float 0.5 & info [ "warmup" ] ~docv:"SECONDS" ~doc)

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

let tiers quick seed clients jobs =
  (* --quick trims sweep points, not measurement windows: each point is
     an independent cluster run, so the quick rows are bit-identical to
     the same rows of the full sweep, and the latency-ordering check
     stays out of short-window noise. *)
  let bounds = if quick then [ 0; 8; 32 ] else Experiments.Tiers.default_bounds in
  let points =
    Experiments.Tiers.run ~clients ~bounds ~seed ~warmup_ms:1_000.0 ~measure_ms:4_000.0
      ~jobs ()
  in
  print_string (Experiments.Tiers.render points);
  if Experiments.Tiers.ok points then `Ok ()
  else begin
    let viol =
      List.fold_left (fun acc p -> acc + Experiments.Tiers.total_violations p) 0 points
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
  Arg.(value & opt int 24 & info [ "clients" ] ~docv:"N" ~doc)

let tiers_cmd =
  Cmd.v
    (Cmd.info "tiers"
       ~doc:
         "Sweep the bounded-staleness lag bound and report per-read-tier latency and \
          served staleness (the latency-vs-staleness frontier), validating every tier \
          contract on the run log")
    Term.(ret (const tiers $ quick_arg $ seed_arg $ tiers_clients_arg $ jobs_arg))

(* --- bench: the committed baseline and its regression gate --- *)

(* `--check` with no FILE picks the newest committed baseline: the
   highest-numbered BENCH_<n>.json in the working directory (the
   in-tree convention — BENCH_6.json is the pre-optimization reference,
   the highest number is the current gate). *)
let newest_baseline () =
  let number name =
    if String.length name > 11
       && String.sub name 0 6 = "BENCH_"
       && Filename.check_suffix name ".json"
    then int_of_string_opt (String.sub name 6 (String.length name - 11))
    else None
  in
  Array.fold_left
    (fun best name ->
      match (number name, best) with
      | Some n, Some (bn, _) when n > bn -> Some (n, name)
      | Some n, None -> Some (n, name)
      | _ -> best)
    None (Sys.readdir ".")

let bench quick seed out check_file threshold jobs =
  let quick = quick || Sys.getenv_opt "REPRO_BENCH_QUICK" = Some "1" in
  let check_file =
    match check_file with
    | Some "auto" -> (
      match newest_baseline () with
      | Some (_, name) ->
        Printf.printf "auto-selected baseline %s (highest-numbered BENCH_*.json)\n" name;
        Ok (Some name)
      | None -> Error "no BENCH_*.json baseline found in the working directory")
    | other -> Ok other
  in
  match check_file with
  | Error e -> `Error (false, e)
  | Ok check_file -> (
  match check_file with
  | None ->
    let r = Experiments.Bench.run ~quick ~seed ~jobs () in
    print_string (Experiments.Bench.render r);
    (match out with
    | None -> `Ok ()
    | Some file -> (
      try
        Experiments.Bench.save r ~file;
        Printf.printf "wrote %s\n" file;
        `Ok ()
      with Sys_error e -> `Error (false, Printf.sprintf "cannot write %s: %s" file e)))
  | Some file -> (
    match Experiments.Bench.load ~file with
    | Error e -> `Error (false, Printf.sprintf "cannot load baseline %s: %s" file e)
    | Ok baseline ->
      (* The gate re-runs the sweep at the baseline's own scale and seed,
         so `repro bench --check FILE` needs no other flags to agree with
         however the baseline was generated. *)
      let r =
        Experiments.Bench.run ~quick:baseline.Experiments.Bench.quick
          ~seed:baseline.Experiments.Bench.seed ~jobs ()
      in
      print_string (Experiments.Bench.render r);
      (match Experiments.Bench.compare_runs ~baseline ~current:r ~threshold with
      | [] ->
        Printf.printf "regression gate: ok against %s (threshold %.0f%%)\n" file
          (100.0 *. threshold);
        `Ok ()
      | problems ->
        List.iter (fun p -> Printf.eprintf "REGRESSION: %s\n" p) problems;
        `Error
          ( false,
            Printf.sprintf "%d headline regression(s) against %s"
              (List.length problems) file ))))

let bench_out_arg =
  let doc = "Also write the sweep as JSON to $(docv) (the committed baseline format)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let bench_check_arg =
  let doc =
    "Regression gate: re-run the sweep at the baseline's scale and seed and fail \
     if any headline metric (TPS, p99 response, certifier decisions/sec) regressed \
     beyond the threshold. With no $(docv), auto-selects the highest-numbered \
     BENCH_*.json in the working directory and prints which one."
  in
  Arg.(
    value
    & opt ~vopt:(Some "auto") (some string) None
    & info [ "check" ] ~docv:"FILE" ~doc)

let bench_threshold_arg =
  let doc = "Relative regression threshold for $(b,--check) (fraction)." in
  Arg.(value & opt float 0.15 & info [ "threshold" ] ~docv:"FRACTION" ~doc)

let bench_cmd =
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the pinned-seed bench sweep (four consistency configurations), \
          optionally writing or checking the committed JSON baseline"
       ~man:
         [
           `S Manpage.s_environment;
           `P
             "REPRO_BENCH_QUICK=1 shrinks the measurement windows like $(b,--quick) \
              (ignored under $(b,--check), which always follows the baseline's \
              scale).";
         ])
    Term.(
      ret
        (const bench $ quick_arg $ seed_arg $ bench_out_arg $ bench_check_arg
        $ bench_threshold_arg $ jobs_arg))

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
  Format.printf "@.Registry:@.%a@." Obs.Registry.pp (Core.Cluster.registry cluster);
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
          staleness, certifier and detector activity) and the metric registry")
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

let all quick seed =
  print_string (Experiments.Table1.render ());
  fig3 quick seed;
  fig4 quick seed;
  fig56 quick seed;
  fig7 quick seed;
  ablation "all" quick

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure plus the ablations")
    Term.(const all $ quick_arg $ seed_arg)

let () =
  let doc = "Reproduction of 'Strongly consistent replication for a bargain' (ICDE 2010)" in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group ~default:trace_term info
      [
        table1_cmd; fig3_cmd; fig4_cmd; fig5_cmd; fig7_cmd; batch_cmd; certindex_cmd;
        ablation_cmd; ycsb_cmd; tpcc_cmd; check_cmd; chaos_cmd; overload_cmd; tiers_cmd;
        bench_cmd;
        report_cmd;
        all_cmd;
      ]
  in
  exit (Cmd.eval group)
