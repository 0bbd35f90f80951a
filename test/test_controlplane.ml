(* The consensus-grade control plane (docs/PROTOCOL.md, "Control
   plane"): quorum-intersecting certifier elections, the partitioned-
   voter lease, and load-balancer failover.

   Everything here runs end to end through [Core.Cluster] under the
   hardened protocol with a seeded fault plan, so elections and
   takeovers are driven by the real failure detectors — the tests only
   script the faults, never the role changes. *)

let params = { Workload.Microbench.tables = 4; rows = 100; update_types = 4 }

let base_config =
  Core.Config.hardened
    {
      Core.Config.default with
      replicas = 3;
      seed = 17;
      record_log = true;
      gc_interval_ms = 0.0;
      hiccup_interval_ms = 0.0;
    }

let make_cluster ?faults ~config mode =
  Core.Cluster.create ~config ?faults ~mode
    ~schemas:(Workload.Microbench.schemas params)
    ~load:(Workload.Microbench.load params)
    ()

let check_empty name violations =
  match violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violation(s), first: %s" name (List.length violations)
      (Format.asprintf "%a" Check.Runlog.pp_violation v)

let updates log = List.filter (fun r -> r.Check.Runlog.commit_version <> None) log

let commit_version r =
  match r.Check.Runlog.commit_version with Some v -> v | None -> 0

(* --- Configuration validation (CLI error path) ----------------------- *)

let test_config_validation () =
  let ok c =
    match Core.Config.validate c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "valid config rejected: %s" e
  in
  let rejected what c =
    match Core.Config.validate c with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error e -> Alcotest.(check bool) (what ^ " has a reason") true (String.length e > 0)
  in
  ok Core.Config.default;
  ok { base_config with Core.Config.certifier_standbys = 2; standby_ack_quorum = 1 };
  ok { base_config with Core.Config.lb_standby = true; voter_lease_ms = 100.0 };
  rejected "zero replicas" { base_config with Core.Config.replicas = 0 };
  rejected "negative standby count"
    { base_config with Core.Config.certifier_standbys = -1 };
  rejected "quorum above standby count"
    { base_config with Core.Config.certifier_standbys = 1; standby_ack_quorum = 2 };
  rejected "negative voter lease" { base_config with Core.Config.voter_lease_ms = -1.0 };
  rejected "NaN voter lease" { base_config with Core.Config.voter_lease_ms = Float.nan };
  (* The cluster constructor refuses to build a doomed cluster. *)
  match
    make_cluster
      ~config:{ base_config with Core.Config.certifier_standbys = 1; standby_ack_quorum = 2 }
      Core.Consistency.Coarse
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Cluster.create accepted an invalid config"

(* --- Stale-standby election regression ------------------------------- *)

(* The pre-election promotion rule let a suspecting standby promote
   itself after a rank stagger, with no one checking its log. Under
   [standby_ack_quorum = 1] a standby that was partitioned away while
   the other one acked releases is missing released decisions; the old
   rule would hand it the primary role as soon as the caught-up standby
   was also unreachable, and its epoch base — its own short log head —
   would re-assign released commit versions (split brain). The election
   makes that impossible: the stale standby's rounds cannot reach a
   quorum-intersecting majority, so the cluster stays headless until
   the caught-up standby is reachable again and wins. *)
let test_stale_standby_cannot_win () =
  let config =
    {
      base_config with
      Core.Config.seed = 31;
      certifier_standbys = 2;
      standby_ack_quorum = 1;
    }
  in
  let lagger = Core.Config.node_cert_standby 2 in
  let acker = Core.Config.node_cert_standby 1 in
  let faults engine =
    let f = Sim.Faults.create ~seed:7 engine in
    (* Standby 2 lags: cut off while standby 1 alone satisfies the
       ack quorum, so released versions run far past its log head. *)
    Sim.Faults.partition f ~a:[ lagger ] ~b:[] ~from_ms:150.0 ~until_ms:600.0 ();
    (* Then the caught-up standby disappears too, just before the
       primary dies: the stale standby is the only reachable member. *)
    Sim.Faults.partition f ~a:[ acker ] ~b:[] ~from_ms:500.0 ~until_ms:900.0 ();
    f
  in
  let cluster = make_cluster ~faults ~config Core.Consistency.Coarse in
  let engine = Core.Cluster.engine cluster in
  let certifier = Core.Cluster.certifier cluster in
  let promotions_while_headless = ref (-1) in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 520.0;
      Core.Cluster.crash_certifier cluster;
      (* Window where only the stale standby can campaign: it must keep
         losing (self-vote < quorum-intersecting majority). *)
      Sim.Process.sleep engine 350.0;
      promotions_while_headless := Core.Certifier.promotions certifier;
      Sim.Process.sleep engine 330.0;
      Core.Cluster.revive_certifier_node cluster 0);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:2_400.0;
  Alcotest.(check int) "no promotion while only the stale standby was reachable" 0
    !promotions_while_headless;
  Alcotest.(check bool) "vote rounds were attempted in the headless window" true
    (Core.Certifier.elections certifier > Core.Certifier.promotions certifier);
  Alcotest.(check bool) "the heal elected a primary" true
    (Core.Certifier.promotions certifier >= 1);
  Alcotest.(check bool) "the stale standby did not win" true
    (Core.Certifier.primary_index certifier <> 2);
  let log = Core.Cluster.records cluster in
  (* The promoted log covered every version released before the crash:
     nothing a client saw committed can be re-assigned. *)
  let released_before_crash =
    List.fold_left
      (fun acc r ->
        if r.Check.Runlog.ack_time < 620.0 then max acc (commit_version r) else acc)
      0 (updates log)
  in
  Alcotest.(check bool) "epoch base covers every released version" true
    (Core.Certifier.epoch_base certifier >= released_before_crash);
  check_empty "election_safety" (Check.Runlog.election_safety log);
  check_empty "epoch_fencing" (Check.Runlog.epoch_fencing log);
  check_empty "first_committer_wins" (Check.Runlog.first_committer_wins log);
  check_empty "strong_consistency" (Check.Runlog.strong_consistency log)

(* --- Partitioned-voter lease ----------------------------------------- *)

(* Under [standby_ack_quorum = all] a partitioned-but-alive voter
   blocks every release. The voter lease must demote it within one
   lease window (checked every lease/4), so the commit stall is bounded
   by ~1.25 windows plus delivery latency — asserted below as: no
   update-ack gap across the partitioned window ever exceeds two
   windows. *)
let lease_ms = 100.0

let lease_faults engine =
  let f = Sim.Faults.create ~seed:13 engine in
  Sim.Faults.partition f
    ~a:[ Core.Config.node_cert_standby 1 ]
    ~b:[] ~from_ms:400.0 ~until_ms:1_300.0 ();
  f

let lease_config ~lease =
  {
    base_config with
    Core.Config.seed = 23;
    certifier_standbys = 2;
    standby_ack_quorum = 0;
    (* all *)
    voter_lease_ms = lease;
  }

let test_lease_bounds_quorum_stall () =
  let cluster =
    make_cluster ~faults:lease_faults ~config:(lease_config ~lease:lease_ms)
      Core.Consistency.Coarse
  in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:1_800.0;
  let certifier = Core.Cluster.certifier cluster in
  Alcotest.(check bool) "the silent voter's lease expired" true
    (Core.Certifier.lease_expiries certifier >= 1);
  Alcotest.(check int) "no failover was needed" 0 (Core.Certifier.promotions certifier);
  let acks =
    List.sort compare (List.map (fun r -> r.Check.Runlog.ack_time) (updates (Core.Cluster.records cluster)))
  in
  (* Commits resumed well inside the partition window... *)
  Alcotest.(check bool) "commits flowed while the voter was partitioned" true
    (List.exists (fun t -> t > 700.0 && t < 1_250.0) acks);
  (* ...and the stall never exceeded two lease windows. *)
  let max_gap =
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (max acc (b -. a)) rest
      | _ -> acc
    in
    go 0.0 (List.filter (fun t -> t > 300.0 && t < 1_250.0) acks)
  in
  Alcotest.(check bool)
    (Printf.sprintf "max update-ack gap %.0fms within two lease windows" max_gap)
    true
    (max_gap < 2.0 *. lease_ms);
  check_empty "strong_consistency" (Check.Runlog.strong_consistency (Core.Cluster.records cluster))

let test_no_lease_stalls_until_heal () =
  (* Control arm: with the lease off, the same partition freezes
     quorum=all releases for its whole duration. This is the stall the
     lease exists to bound. *)
  let cluster =
    make_cluster ~faults:lease_faults ~config:(lease_config ~lease:0.0)
      Core.Consistency.Coarse
  in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:1_800.0;
  let certifier = Core.Cluster.certifier cluster in
  Alcotest.(check int) "no lease, no expiry" 0 (Core.Certifier.lease_expiries certifier);
  let acks = List.map (fun r -> r.Check.Runlog.ack_time) (updates (Core.Cluster.records cluster)) in
  Alcotest.(check bool) "updates stalled across the partition" true
    (not (List.exists (fun t -> t > 600.0 && t < 1_250.0) acks));
  Alcotest.(check bool) "updates resumed after the heal" true
    (List.exists (fun t -> t > 1_350.0) acks)

(* --- LB takeover ------------------------------------------------------ *)

let lb_config =
  {
    base_config with
    Core.Config.seed = 41;
    lb_standby = true;
  }

let test_lb_takeover_with_inflight_sessions () =
  (* Crash the active LB under a full closed-loop session load: the
     standby must depose it, reconstruct conservative floors, and every
     session contract must hold across the routing-epoch boundary. *)
  let cluster = make_cluster ~config:lb_config Core.Consistency.Session in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:12 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 600.0;
      Core.Cluster.crash_lb cluster (Core.Cluster.lb_active_index cluster));
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:2_500.0;
  Alcotest.(check int) "exactly one takeover" 1 (Core.Cluster.lb_takeovers cluster);
  Alcotest.(check int) "routing epoch bumped" 1 (Core.Cluster.lb_epoch cluster);
  Alcotest.(check int) "the standby holds the role" 1 (Core.Cluster.lb_active_index cluster);
  let log = Core.Cluster.records cluster in
  let after = List.filter (fun r -> r.Check.Runlog.lb_epoch = 1) log in
  Alcotest.(check bool) "commits resumed under the new LB" true
    (List.length after > 50);
  Alcotest.(check bool) "commits recorded under the old LB too" true
    (List.exists (fun r -> r.Check.Runlog.lb_epoch = 0) log);
  check_empty "session_consistency" (Check.Runlog.session_consistency log);
  check_empty "monotone_session_snapshots" (Check.Runlog.monotone_session_snapshots log);
  check_empty "first_committer_wins" (Check.Runlog.first_committer_wins log);
  check_empty "lb_floor_preservation" (Check.Runlog.lb_floor_preservation log);
  check_empty "election_safety" (Check.Runlog.election_safety log)

let test_lb_takeover_during_certifier_failover () =
  (* Double failure: the cluster loses its router and its certifier
     primary in the same window, recovers both by itself, and the
     history stays strongly consistent. *)
  let config =
    { lb_config with Core.Config.seed = 43; certifier_standbys = 2 }
  in
  let cluster = make_cluster ~config Core.Consistency.Coarse in
  let engine = Core.Cluster.engine cluster in
  let certifier = Core.Cluster.certifier cluster in
  Core.Client.spawn_many cluster ~n:12 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 600.0;
      Core.Cluster.crash_lb cluster (Core.Cluster.lb_active_index cluster);
      Sim.Process.sleep engine 20.0;
      Core.Cluster.crash_certifier cluster;
      Sim.Process.sleep engine 700.0;
      Core.Cluster.revive_certifier_node cluster 0);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:3_000.0;
  Alcotest.(check bool) "LB takeover happened" true (Core.Cluster.lb_takeovers cluster >= 1);
  Alcotest.(check bool) "a standby was elected" true
    (Core.Certifier.promotions certifier >= 1);
  let log = Core.Cluster.records cluster in
  Alcotest.(check bool) "commits resumed under both new regimes" true
    (List.exists
       (fun r -> r.Check.Runlog.lb_epoch >= 1 && r.Check.Runlog.epoch >= 1)
       log);
  check_empty "strong_consistency" (Check.Runlog.strong_consistency log);
  check_empty "first_committer_wins" (Check.Runlog.first_committer_wins log);
  check_empty "epoch_fencing" (Check.Runlog.epoch_fencing log);
  check_empty "election_safety" (Check.Runlog.election_safety log);
  check_empty "lb_floor_preservation" (Check.Runlog.lb_floor_preservation log)

let test_deposed_lb_is_fenced () =
  (* A recovered ex-active that still believes it holds the role must
     be fenced by the successor's epoch and stand down as the standby —
     no routing flap, no second takeover. *)
  let cluster =
    make_cluster ~config:{ lb_config with Core.Config.seed = 47 } Core.Consistency.Coarse
  in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 500.0;
      Core.Cluster.crash_lb cluster 0;
      Sim.Process.sleep engine 300.0;
      Core.Cluster.recover_lb cluster 0);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:2_000.0;
  Alcotest.(check int) "one takeover, no flap back" 1 (Core.Cluster.lb_takeovers cluster);
  Alcotest.(check int) "routing epoch bumped once" 1 (Core.Cluster.lb_epoch cluster);
  Alcotest.(check int) "the successor kept the role" 1 (Core.Cluster.lb_active_index cluster);
  Alcotest.(check bool) "the deposed instance was fenced" true
    (Core.Cluster.lb_fenced cluster >= 1);
  Alcotest.(check bool) "the deposed instance is alive (as standby)" true
    (not (Core.Cluster.lb_is_crashed cluster 0));
  let log = Core.Cluster.records cluster in
  check_empty "strong_consistency" (Check.Runlog.strong_consistency log);
  check_empty "election_safety" (Check.Runlog.election_safety log)

let test_tier_floors_survive_takeover () =
  (* Tiered reads across a takeover: the reconstructed conservative
     floors must keep bounded-staleness and causal read-your-writes
     intact on both sides of the routing-epoch boundary. *)
  let config =
    { lb_config with Core.Config.seed = 53; read_tiers = true }
  in
  let cluster = make_cluster ~config Core.Consistency.Coarse in
  let engine = Core.Cluster.engine cluster in
  (* Same schema, but only half the transaction types write — the rest
     are tiered reads. *)
  Core.Client.spawn_many cluster ~n:16 ~first_sid:0
    (Workload.Microbench.tiered_workload { params with Workload.Microbench.update_types = 2 });
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 700.0;
      Core.Cluster.crash_lb cluster (Core.Cluster.lb_active_index cluster));
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:2_500.0;
  Alcotest.(check int) "takeover happened" 1 (Core.Cluster.lb_takeovers cluster);
  let log = Core.Cluster.records cluster in
  let tiered e =
    List.exists
      (fun r -> r.Check.Runlog.lb_epoch = e && r.Check.Runlog.tier <> Check.Runlog.Strong)
      log
  in
  Alcotest.(check bool) "tiered reads before the takeover" true (tiered 0);
  Alcotest.(check bool) "tiered reads after the takeover" true (tiered 1);
  check_empty "tier_bounded_staleness" (Check.Runlog.tier_bounded_staleness log);
  check_empty "tier_causal_ryw" (Check.Runlog.tier_causal_ryw log);
  check_empty "tier_monotone_reads" (Check.Runlog.tier_monotone_reads log);
  check_empty "lb_floor_preservation" (Check.Runlog.lb_floor_preservation log);
  check_empty "first_committer_wins" (Check.Runlog.first_committer_wins log)

let suites =
  [
    ( "core.controlplane",
      [
        Alcotest.test_case "config validation rejects contradictions" `Quick
          test_config_validation;
        Alcotest.test_case "stale standby cannot win an election" `Quick
          test_stale_standby_cannot_win;
        Alcotest.test_case "voter lease bounds the quorum=all stall" `Quick
          test_lease_bounds_quorum_stall;
        Alcotest.test_case "no lease: quorum=all stalls until heal" `Quick
          test_no_lease_stalls_until_heal;
        Alcotest.test_case "LB takeover with in-flight sessions" `Quick
          test_lb_takeover_with_inflight_sessions;
        Alcotest.test_case "LB takeover during certifier failover" `Quick
          test_lb_takeover_during_certifier_failover;
        Alcotest.test_case "deposed LB is fenced and stands down" `Quick
          test_deposed_lb_is_fenced;
        Alcotest.test_case "tier floors survive a takeover" `Quick
          test_tier_floors_survive_takeover;
      ] );
  ]
