(* Overload protection (docs/PROTOCOL.md, "Overload & admission
   control"): open-loop arrivals, admission shedding, retry budgets,
   deadline propagation — and the metastable-failure regression pinning
   the protected-vs-unprotected contrast under the chaos harness's
   [Overload] plan.

   Everything runs end to end through [Core.Cluster]; tests configure
   knobs and offered load, never reach into the shedding paths. *)

let params = { Workload.Microbench.tables = 4; rows = 100; update_types = 4 }

let base_config =
  {
    Core.Config.default with
    replicas = 3;
    seed = 23;
    record_log = true;
    gc_interval_ms = 0.0;
    hiccup_interval_ms = 0.0;
  }

let make_cluster ?faults ~config mode =
  Core.Cluster.create ~config ?faults ~mode
    ~schemas:(Workload.Microbench.schemas params)
    ~load:(Workload.Microbench.load params)
    ()

(* Offer [rate_tps] open-loop for [duration_ms], then return the cluster
   after its post-load state has settled. *)
let run_open_loop ?faults ~config ~rate_tps ~duration_ms mode =
  let cluster = make_cluster ?faults ~config mode in
  Core.Client.open_loop_many cluster ~n:8 ~first_sid:0 ~rate_tps
    (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:0.0 ~measure_ms:duration_ms;
  cluster

(* --- Abort-reason classification ------------------------------------- *)

let test_overloaded_is_transient () =
  let t = Core.Transaction.abort_is_transient in
  Alcotest.(check bool)
    "Overloaded is transient" true
    (t (Core.Transaction.Overloaded { retry_after_ms = 5.0 }));
  Alcotest.(check bool) "Timeout is transient" true (t Core.Transaction.Timeout);
  Alcotest.(check bool)
    "Replica_failure is transient" true
    (t Core.Transaction.Replica_failure);
  Alcotest.(check bool)
    "Certification_conflict is not transient" false
    (t Core.Transaction.Certification_conflict);
  Alcotest.(check string)
    "reason slug" "overloaded"
    (Core.Transaction.abort_slug
       (Core.Transaction.Overloaded { retry_after_ms = 5.0 }))

(* --- Configuration validation ---------------------------------------- *)

let test_overload_config_validation () =
  let ok what c =
    match Core.Config.validate c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s rejected: %s" what e
  in
  let rejected what c =
    match Core.Config.validate c with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error e ->
      Alcotest.(check bool) (what ^ " has a reason") true (String.length e > 0)
  in
  ok "defaults (all protections off)" base_config;
  ok "full protection stack"
    {
      base_config with
      Core.Config.admission_limit = 48;
      admission_rate_tps = 2_000.0;
      admission_burst = 16.0;
      cert_queue_bound = 24;
      apply_lag_gap = 200;
      retry_budget = 6.0;
      retry_budget_per_s = 2.0;
      deadline_ms = 500.0;
    };
  rejected "negative admission limit"
    { base_config with Core.Config.admission_limit = -1 };
  rejected "negative admission rate"
    { base_config with Core.Config.admission_rate_tps = -2.0 };
  rejected "token bucket without a whole token"
    { base_config with Core.Config.admission_rate_tps = 100.0; admission_burst = 0.5 };
  rejected "negative certifier queue bound"
    { base_config with Core.Config.cert_queue_bound = -3 };
  rejected "negative apply-lag gap"
    { base_config with Core.Config.apply_lag_gap = -1 };
  rejected "apply-lag gap at the flow-control slack"
    {
      base_config with
      Core.Config.apply_lag_gap = base_config.Core.Config.watermark_slack;
    };
  rejected "non-positive retry-after hint"
    { base_config with Core.Config.shed_retry_after_ms = 0.0 };
  rejected "negative retry budget"
    { base_config with Core.Config.retry_budget = -1.0 };
  rejected "retry budget with no refill"
    { base_config with Core.Config.retry_budget = 4.0; retry_budget_per_s = 0.0 };
  rejected "negative deadline"
    { base_config with Core.Config.deadline_ms = -10.0 };
  rejected "zero observatory window"
    { base_config with Core.Config.obs_window_ms = 0.0 };
  rejected "negative observatory window"
    { base_config with Core.Config.obs_window_ms = -250.0 };
  rejected "no histogram buckets"
    { base_config with Core.Config.obs_hist_buckets_per_decade = 0 }

(* --- Admission shedding: refusals, hints, zero zombies ---------------- *)

let test_admission_sheds_without_zombies () =
  let config =
    { base_config with Core.Config.admission_limit = 4; shed_retry_after_ms = 7.0 }
  in
  let cluster =
    run_open_loop ~config ~rate_tps:4_000.0 ~duration_ms:300.0
      Core.Consistency.Coarse
  in
  let m = Core.Cluster.metrics cluster in
  Alcotest.(check bool) "load was shed" true (Core.Metrics.shed m > 0);
  Alcotest.(check int)
    "metrics and cluster shed tids agree" (Core.Metrics.shed m)
    (Core.Cluster.shed_count cluster);
  Alcotest.(check bool)
    "queue depth observed" true
    (Core.Metrics.max_queue_depth m > 0);
  Alcotest.(check bool) "work still commits" true (Core.Metrics.committed m > 0);
  (* the zombie-commit invariant: no shed tid ever reaches the runlog *)
  List.iter
    (fun r ->
      if Core.Cluster.was_shed cluster ~tid:r.Check.Runlog.tid then
        Alcotest.failf "zombie commit: shed tid %d committed" r.Check.Runlog.tid)
    (Core.Cluster.records cluster)

(* --- Retry budgets: amplification is capped --------------------------- *)

let test_retry_budget_exhaustion () =
  let config =
    {
      base_config with
      Core.Config.admission_limit = 2;
      shed_retry_after_ms = 1.0;
      retry_budget = 2.0;
      retry_budget_per_s = 1.0;
    }
  in
  let cluster =
    run_open_loop ~config ~rate_tps:4_000.0 ~duration_ms:300.0
      Core.Consistency.Coarse
  in
  let m = Core.Cluster.metrics cluster in
  Alcotest.(check bool)
    "budgets ran dry" true
    (Core.Metrics.retry_budget_exhausted m > 0);
  Alcotest.(check bool) "cluster survived" true (Core.Metrics.committed m > 0)

(* --- Deadline propagation: a slow certifier drops expired work -------- *)

let test_deadline_expiry () =
  let config = { base_config with Core.Config.deadline_ms = 3.0 } in
  let faults engine =
    let f = Sim.Faults.create ~seed:11 engine in
    Sim.Faults.slow f ~node:Core.Config.node_certifier ~factor:40.0 ~from_ms:0.0
      ~until_ms:300.0;
    f
  in
  let cluster =
    run_open_loop ~faults ~config ~rate_tps:3_000.0 ~duration_ms:300.0
      Core.Consistency.Coarse
  in
  let m = Core.Cluster.metrics cluster in
  Alcotest.(check bool)
    "expired work was dropped" true
    (Core.Metrics.deadline_expired m > 0)

(* --- Open-loop determinism ------------------------------------------- *)

let test_open_loop_deterministic () =
  let digest_of () =
    let config =
      { base_config with Core.Config.admission_limit = 8; retry_budget = 4.0 }
    in
    let cluster =
      run_open_loop ~config ~rate_tps:2_000.0 ~duration_ms:250.0
        Core.Consistency.Coarse
    in
    ( Check.Runlog.digest (Core.Cluster.records cluster),
      Core.Metrics.shed (Core.Cluster.metrics cluster) )
  in
  let d1, s1 = digest_of () in
  let d2, s2 = digest_of () in
  Alcotest.(check string) "same seed, same runlog digest" d1 d2;
  Alcotest.(check int) "same seed, same shed count" s1 s2

(* --- Metastable-failure regression ----------------------------------- *)

(* The pinned scenario (docs/FAULTS.md, "Overload"): 6000 tps offered
   open-loop against a cluster whose certifier takes a 6x gray slowdown
   mid-run. Unprotected, the backlog built during the slowdown outlives
   the fault — the post-heal drain stays wedged. With the protection
   stack armed the cluster sheds its way through the window and recovers
   within one drain slice. *)
let test_metastable_regression () =
  let protected_arm =
    Experiments.Chaos.soak ~protections:true ~offered_tps:6_000.0
      ~mode:Core.Consistency.Coarse ~plan:Experiments.Chaos.Overload ~seed:1
      ~duration_ms:1_000.0 ()
  in
  let control =
    Experiments.Chaos.soak ~protections:false ~offered_tps:6_000.0
      ~mode:Core.Consistency.Coarse ~plan:Experiments.Chaos.Overload ~seed:1
      ~duration_ms:1_000.0 ()
  in
  (* protected arm: healthy under the same offered load *)
  Alcotest.(check bool) "protected arm ok" true (Experiments.Chaos.ok protected_arm);
  Alcotest.(check bool)
    "protected arm not wedged" false protected_arm.Experiments.Chaos.wedged;
  Alcotest.(check bool)
    "protected arm shed load" true
    (protected_arm.Experiments.Chaos.shed > 0);
  Alcotest.(check int)
    "protected arm has zero zombie commits" 0
    protected_arm.Experiments.Chaos.zombie_commits;
  Alcotest.(check int)
    "protected arm has zero violations" 0
    (List.fold_left
       (fun acc (_, n) -> acc + n)
       0 protected_arm.Experiments.Chaos.violations);
  (* control arm: the metastable collapse — strictly slower recovery *)
  Alcotest.(check int)
    "control arm sheds nothing" 0 control.Experiments.Chaos.shed;
  Alcotest.(check bool)
    "control arm degrades (wedged or strictly slower recovery)" true
    (control.Experiments.Chaos.wedged
    || control.Experiments.Chaos.wedge_drain_ms
       > protected_arm.Experiments.Chaos.wedge_drain_ms);
  Alcotest.(check bool)
    "retry storm: control aborts dwarf the protected arm's" true
    (control.Experiments.Chaos.aborted > 2 * protected_arm.Experiments.Chaos.aborted);
  Alcotest.(check bool)
    "protected arm commits at least as much" true
    (protected_arm.Experiments.Chaos.committed >= control.Experiments.Chaos.committed)

let suites =
  [
    ( "overload",
      [
        Alcotest.test_case "overloaded abort is transient" `Quick
          test_overloaded_is_transient;
        Alcotest.test_case "overload knob validation" `Quick
          test_overload_config_validation;
        Alcotest.test_case "admission sheds, zero zombies" `Quick
          test_admission_sheds_without_zombies;
        Alcotest.test_case "retry budget exhaustion" `Quick
          test_retry_budget_exhaustion;
        Alcotest.test_case "deadline expiry under gray certifier" `Quick
          test_deadline_expiry;
        Alcotest.test_case "open-loop arrivals are deterministic" `Quick
          test_open_loop_deterministic;
        Alcotest.test_case "metastable-failure regression" `Slow
          test_metastable_regression;
      ] );
  ]
