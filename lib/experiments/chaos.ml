let log_src = Logs.Src.create "repro.chaos" ~doc:"Seeded fault-schedule soak harness"

module Log = (val Logs.src_log log_src)

type plan =
  | Clean
  | Lossy
  | Partitions
  | Gray
  | Mixed
  | CertFailover
  | ControlPlane
  | Overload

let plan_name = function
  | Clean -> "clean"
  | Lossy -> "lossy"
  | Partitions -> "partitions"
  | Gray -> "gray"
  | Mixed -> "mixed"
  | CertFailover -> "cert-failover"
  | ControlPlane -> "control-plane"
  | Overload -> "overload"

let plans = [ Clean; Lossy; Partitions; Gray; Mixed; CertFailover; ControlPlane; Overload ]

(* Every schedule below is derived only from [seed] and [duration_ms]:
   same inputs, same plan, bit for bit. All windows close by
   [0.75 * duration], leaving a clean tail for the cluster to converge
   in (the wedge check relies on it). *)
let build_plan plan ~seed ~duration_ms ~replicas engine =
  (* Derive the plan's seed rather than reusing the run seed verbatim:
     the cluster's root RNG is [Util.Rng.create seed], and seeding the
     fault stream identically would correlate fault draws with the
     streams split from the root. *)
  let f = Sim.Faults.create ~seed:(seed lxor 0x2b99_17c5_1e7a_3f6d) engine in
  let frac a = a *. duration_ms in
  (match plan with
  | Clean -> ()
  | Lossy ->
    Sim.Faults.set_default f
      (Sim.Faults.spec ~drop:0.03 ~duplicate:0.02 ~delay:0.03 ~delay_ms:15.0 ())
  | Partitions ->
    Sim.Faults.set_default f (Sim.Faults.spec ~drop:0.005 ());
    (* Two replicas take turns being cut off from everyone. *)
    Sim.Faults.partition f ~a:[ 0 ] ~b:[] ~from_ms:(frac 0.15) ~until_ms:(frac 0.3) ();
    Sim.Faults.partition f
      ~a:[ 1 mod replicas ]
      ~b:[] ~from_ms:(frac 0.45) ~until_ms:(frac 0.6) ();
    (* A partial (asymmetric) cut: replica 0 can send to the certifier
       but hears nothing back. *)
    Sim.Faults.partition f ~symmetric:false
      ~a:[ Core.Config.node_certifier ]
      ~b:[ 0 ] ~from_ms:(frac 0.65) ~until_ms:(frac 0.72) ()
  | Gray ->
    (* Gray failure: nothing is lost, but one replica and then the
       certifier run several times slower than their cost model says. *)
    Sim.Faults.slow f ~node:0 ~factor:5.0 ~from_ms:(frac 0.1) ~until_ms:(frac 0.35);
    Sim.Faults.slow f ~node:Core.Config.node_certifier ~factor:3.0
      ~from_ms:(frac 0.5) ~until_ms:(frac 0.65)
  | Mixed ->
    Sim.Faults.set_default f
      (Sim.Faults.spec ~drop:0.02 ~duplicate:0.01 ~delay:0.02 ~delay_ms:10.0 ());
    (* The certifier->replica refresh link is extra lossy: stresses
       repair retransmission and receiver-side dedup. *)
    Sim.Faults.set_link f ~src:Core.Config.node_certifier ~dst:Sim.Faults.any
      (Sim.Faults.spec ~drop:0.08 ~duplicate:0.04 ~delay:0.02 ~delay_ms:10.0 ());
    Sim.Faults.partition f ~a:[ 0 ] ~b:[] ~from_ms:(frac 0.2) ~until_ms:(frac 0.35) ();
    Sim.Faults.slow f
      ~node:(1 mod replicas)
      ~factor:4.0 ~from_ms:(frac 0.4) ~until_ms:(frac 0.55);
    Sim.Faults.script_drop f ~src:Sim.Faults.any ~dst:Core.Config.node_certifier
      ~count:25
  | CertFailover ->
    (* Certifier-group havoc: mild ambient loss, the initial primary cut
       off around its crash/revival window (so it returns into a
       partition and must reconcile after the heal), and the first
       promoted standby partitioned later while it holds the role — a
       deposed-but-alive primary whose in-flight decisions and pushes
       must all be epoch-fenced. The soak schedule crashes the initial
       primary at 0.18d and revives it at 0.42d; promotions themselves
       are automatic (standby failure detectors). *)
    Sim.Faults.set_default f
      (Sim.Faults.spec ~drop:0.02 ~duplicate:0.01 ~delay:0.02 ~delay_ms:10.0 ());
    Sim.Faults.partition f
      ~a:[ Core.Config.node_cert_standby 0 ]
      ~b:[] ~from_ms:(frac 0.18) ~until_ms:(frac 0.55) ();
    Sim.Faults.partition f
      ~a:[ Core.Config.node_cert_standby 1 ]
      ~b:[] ~from_ms:(frac 0.5) ~until_ms:(frac 0.7) ()
  | ControlPlane ->
    (* Whole-control-plane havoc (certifier group AND load balancer in
       one run), layered over mild ambient loss. Three overlapping
       phases, all healed by 0.75d:
       - [0.12d, 0.30d]: a caught-up standby is partitioned while the
         primary is healthy — under [standby_ack_quorum = all] every
         commit stalls until the voter lease demotes it to learner;
       - [0.25d, 0.55d]: the active LB is crashed by the soak schedule
         (below); the standby LB must take over routing with floors
         intact, and the deposed instance is fenced when it returns;
       - [0.45d, 0.62d]: the certifier primary is crashed by the soak
         schedule — overlapping the LB outage window's tail, so for a
         while the cluster has neither its original router nor its
         original certifier — and a quorum-intersecting election must
         promote a safe successor. *)
    Sim.Faults.set_default f
      (Sim.Faults.spec ~drop:0.02 ~duplicate:0.01 ~delay:0.02 ~delay_ms:10.0 ());
    Sim.Faults.partition f
      ~a:[ Core.Config.node_cert_standby 1 ]
      ~b:[] ~from_ms:(frac 0.12) ~until_ms:(frac 0.3) ()
  | Overload ->
    (* The metastable trigger (docs/FAULTS.md, "Overload"): a gray
       slowdown of the certifier — the shared bottleneck — while an
       open-loop arrival process keeps offering load regardless of
       completions. Work queues, clients time out and retry, and the
       retry traffic outlives the fault: without admission control the
       collapse is self-sustaining after the heal. The window closes by
       0.55d, leaving the usual convergence tail. *)
    Sim.Faults.slow f ~node:Core.Config.node_certifier ~factor:6.0
      ~from_ms:(frac 0.25) ~until_ms:(frac 0.55));
  f

type result = {
  mode : Core.Consistency.mode;
  plan : plan;
  seed : int;
  tiers : bool;
  committed : int;
  aborted : int;
  aborts_by_reason : (string * int) list;
  violations : (string * int) list;
  wedged : bool;
  wedge_drain_ms : float;
      (** virtual time the post-heal drain took until the cluster both
          progressed and caught up (the full drain span when wedged) *)
  digest : string;
  totals : (string * int) list;  (** the catalog's window totals *)
  epoch : int;  (** final certifier epoch *)
  lb_epoch : int;  (** final LB routing epoch *)
  divergent_log_entries : int;
      (** versions whose writeset differs between two certifier group
          members' retained logs (must be 0: same version, same decision
          on every surviving copy) *)
  outage_max_ms : float;  (** widest commit-outage window a promotion closed *)
  max_queue_depth : int;  (** deepest backlog/admitted depth observed *)
  zombie_commits : int;
      (** committed-log records whose tid was also shed — must be 0:
          a refused transaction may never commit *)
}

let total r name = Option.value ~default:0 (List.assoc_opt name r.totals)

(* Stale-epoch certifier traffic rejected anywhere: at the certifier
   group, at the replicas and at the load balancer. *)
let fenced r =
  total r "certifier.fenced" + total r "replicas.fenced" + total r "lb.cert_fenced"

let ok r =
  let promotions = total r "certifier.promotions" in
  (not r.wedged)
  && r.divergent_log_entries = 0
  && List.for_all (fun (_, n) -> n = 0) r.violations
  (* The cert-failover plan exists to exercise automatic promotion: a
     run where no standby ever took over proves nothing. *)
  && (r.plan <> CertFailover || promotions >= 1)
  (* Likewise, a control-plane run must see both halves actually fail
     over: at least one safe election-backed promotion AND at least one
     standby-LB takeover. *)
  && (r.plan <> ControlPlane || (promotions >= 1 && total r "lb.takeovers" >= 1))
  (* A shed transaction may never also commit, whatever the plan. *)
  && r.zombie_commits = 0
  (* An overload run where nothing was ever refused proves nothing: the
     open-loop load is sized beyond capacity, so protection must bite. *)
  && (r.plan <> Overload || total r "txn.shed" > 0)

(* The per-mode checker battery: first-committer-wins (no lost or
   double-committed writes under GSI) and epoch fencing (commit versions
   partitioned by certifier epoch — trivially clean without failovers)
   always, plus the guarantee the mode advertises. *)
let checkers mode =
  let always =
    [
      ("first_committer_wins", Check.Runlog.first_committer_wins);
      ("epoch_fencing", Check.Runlog.epoch_fencing);
      (* Control-plane invariants: one certification history (no version
         assigned twice by rival primaries), and LB takeovers preserve
         handed-out session guarantees. Both trivially empty on runs
         without failovers. *)
      ("election_safety", Check.Runlog.election_safety);
      ("lb_floor_preservation", Check.Runlog.lb_floor_preservation);
      (* The read-tier contracts constrain only records of their own
         class, so they are trivially empty on untiered logs and can
         ride in every battery. *)
      ("tier_bounded_staleness", Check.Runlog.tier_bounded_staleness);
      ("tier_causal_ryw", Check.Runlog.tier_causal_ryw);
      ("tier_monotone_reads", Check.Runlog.tier_monotone_reads);
    ]
  in
  match (mode : Core.Consistency.mode) with
  | Core.Consistency.Eager | Core.Consistency.Coarse ->
    always @ [ ("strong_consistency", Check.Runlog.strong_consistency) ]
  | Core.Consistency.Fine ->
    always @ [ ("fine_strong_consistency", Check.Runlog.fine_strong_consistency) ]
  | Core.Consistency.Session ->
    always
    @ [
        ("session_consistency", Check.Runlog.session_consistency);
        ("monotone_session_snapshots", Check.Runlog.monotone_session_snapshots);
      ]
  | Core.Consistency.Bounded k ->
    always @ [ ("bounded_staleness", Check.Runlog.bounded_staleness ~k) ]

(* Decision divergence across the certifier group: every version present
   in more than one member's retained log must carry the same writeset
   on each copy — structurally equal entries. Any mismatch means two
   histories assigned the same version to different transactions and
   both survived, i.e. reconciliation failed. *)
let divergent_log_entries certifier =
  let canonical = Hashtbl.create 1024 in
  let divergent = ref 0 in
  for k = 0 to Core.Certifier.group_size certifier - 1 do
    List.iter
      (fun (v, ws) ->
        let entries = Storage.Writeset.entries ws in
        match Hashtbl.find_opt canonical v with
        | None -> Hashtbl.add canonical v entries
        | Some seen -> if seen <> entries then incr divergent)
      (Core.Certifier.node_log certifier k)
  done;
  !divergent

let default_params = { Workload.Microbench.tables = 4; rows = 200; update_types = 2 }

let default_config ~seed =
  Core.Config.hardened
    {
      Core.Config.default with
      Core.Config.seed;
      replicas = 3;
      record_log = true;
      hiccup_interval_ms = 0.0;
    }

let soak ?config ?(params = default_params) ?(clients = 12) ?(tiers = false)
    ?(protections = true) ?(offered_tps = 6_000.0) ~mode ~plan ~seed ~duration_ms () =
  let config =
    match config with
    | Some c -> { c with Core.Config.seed; record_log = true }
    | None -> default_config ~seed
  in
  (* The overload plan arms the full protection stack (admission cap,
     bounded certifier backlog, apply-lag governor, retry budget,
     deadlines). [~protections:false] is the experiment's control arm:
     same open-loop load, same gray fault, nothing shed — the metastable
     collapse the protections exist to prevent. *)
  let config =
    if plan = Overload && protections then Core.Config.protected config else config
  in
  let config =
    if tiers then { config with Core.Config.read_tiers = true } else config
  in
  (* The cert-failover plan needs a certifier group that survives losing
     its primary while another member is partitioned: two standbys. *)
  let config =
    if plan = CertFailover && config.Core.Config.certifier_standbys < 2 then
      { config with Core.Config.certifier_standbys = 2 }
    else config
  in
  (* The control-plane plan needs the whole HA surface: two certifier
     standbys (an election quorum that survives one partitioned voter),
     a standby LB, and the voter lease — under the default
     [standby_ack_quorum = all] the partitioned-voter phase would
     otherwise stall commits for its entire window. *)
  let config =
    if plan = ControlPlane then
      {
        config with
        Core.Config.certifier_standbys = max 2 config.Core.Config.certifier_standbys;
        lb_standby = true;
        voter_lease_ms =
          (if config.Core.Config.voter_lease_ms <= 0.0 then 100.0
           else config.Core.Config.voter_lease_ms);
      }
    else config
  in
  let replicas = config.Core.Config.replicas in
  let cluster =
    Core.Cluster.create ~config
      ~faults:(build_plan plan ~seed ~duration_ms ~replicas)
      ~mode
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  let engine = Core.Cluster.engine cluster in
  (* The mixed schedule also exercises fail-stop: crash a replica during
     the faulty window and bring it back before the drain tail. *)
  if plan = Mixed && replicas > 1 then
    Sim.Process.spawn engine (fun () ->
        let victim = 2 mod replicas in
        Sim.Process.sleep engine (0.45 *. duration_ms);
        Core.Cluster.crash_replica cluster victim;
        (* Long enough (at the default 2s duration) for the detector to
           declare it dead before it returns. *)
        Sim.Process.sleep engine (0.25 *. duration_ms);
        Core.Cluster.recover_replica cluster victim);
  (* The cert-failover schedule: fail-stop the initial primary mid-load
     (it is also partitioned by the plan, so the kill is indistinguishable
     from a network cut until it returns) and revive it while the cut
     still holds — it rejoins as a standby only after the heal, via epoch
     adoption and log reconciliation. Promotion itself is automatic. *)
  if plan = CertFailover then
    Sim.Process.spawn engine (fun () ->
        Sim.Process.sleep engine (0.18 *. duration_ms);
        Core.Cluster.crash_certifier cluster;
        Sim.Process.sleep engine (0.24 *. duration_ms);
        Core.Cluster.revive_certifier_node cluster 0);
  (* The control-plane schedule (see the plan's phase comment in
     [build_plan]): crash the active LB while the certifier group is
     digesting a partitioned voter, then crash the certifier primary
     while the LB outage still holds — both successors must come up, by
     takeover and by election, with no released guarantee lost. *)
  if plan = ControlPlane then begin
    Sim.Process.spawn engine (fun () ->
        Sim.Process.sleep engine (0.25 *. duration_ms);
        let victim = Core.Cluster.lb_active_index cluster in
        Core.Cluster.crash_lb cluster victim;
        Sim.Process.sleep engine (0.3 *. duration_ms);
        Core.Cluster.recover_lb cluster victim);
    Sim.Process.spawn engine (fun () ->
        Sim.Process.sleep engine (0.45 *. duration_ms);
        Core.Cluster.crash_certifier cluster;
        Sim.Process.sleep engine (0.17 *. duration_ms);
        Core.Cluster.revive_certifier_node cluster 0)
  end;
  let workload =
    if tiers then Workload.Microbench.tiered_workload params
    else Workload.Microbench.workload params
  in
  (* The overload plan drives open-loop arrivals: [offered_tps] is the
     aggregate offered rate, split across [clients] generators, and it
     does not slow down when the cluster does — the defining property of
     the regime. Every other plan keeps the paper's closed-loop RTEs. *)
  if plan = Overload then
    Core.Client.open_loop_many cluster ~n:clients ~first_sid:0 ~rate_tps:offered_tps
      workload
  else Core.Client.spawn_many cluster ~n:clients ~first_sid:0 workload;
  Core.Cluster.run_for cluster ~warmup_ms:0.0 ~measure_ms:duration_ms;
  (* Drain: every fault window has healed; a live cluster must keep
     committing and every replica must catch up to where the certifier
     stood at the start of the drain. Either failing means it wedged. *)
  let metrics = Core.Cluster.metrics cluster in
  let committed_before = Core.Metrics.committed metrics in
  let cert_version_before = Core.Certifier.version (Core.Cluster.certifier cluster) in
  let progressed () = Core.Metrics.committed metrics > committed_before in
  let caught_up () =
    let up = ref true in
    for i = 0 to replicas - 1 do
      let r = Core.Cluster.replica cluster i in
      if (not (Core.Replica.is_crashed r)) && Core.Replica.v_local r < cert_version_before
      then up := false
    done;
    !up
  in
  (* Step the drain in slices so the health timeline can report how long
     the cluster took to become healthy again. Running to intermediate
     horizons executes exactly the same events in the same order as one
     run to the full horizon, so digests are unaffected. *)
  let drain_start = Sim.Engine.now engine in
  let drain_span = 0.5 *. duration_ms in
  let slices = 20 in
  let healthy_at = ref None in
  for slice = 1 to slices do
    Sim.Engine.run engine
      ~until:(drain_start +. (float_of_int slice /. float_of_int slices *. drain_span));
    if !healthy_at = None && progressed () && caught_up () then
      healthy_at := Some (Sim.Engine.now engine -. drain_start)
  done;
  let progressed = progressed () and caught_up = caught_up () in
  let wedge_drain_ms = Option.value !healthy_at ~default:drain_span in
  let records = Core.Cluster.records cluster in
  let violations =
    List.map
      (fun (name, check) ->
        let vs = check records in
        List.iteri
          (fun i v ->
            if i < 3 then
              Format.eprintf "[chaos %s/%s/%d] %s: %a@."
                (Core.Consistency.to_string mode)
                (plan_name plan) seed name Check.Runlog.pp_violation v)
          vs;
        (name, List.length vs))
      (checkers mode)
  in
  {
    mode;
    plan;
    seed;
    tiers;
    committed = Core.Metrics.committed metrics;
    aborted = Core.Metrics.aborted metrics;
    aborts_by_reason = Core.Metrics.aborts_by_reason metrics;
    violations;
    wedged = not (progressed && caught_up);
    wedge_drain_ms;
    digest = Check.Runlog.digest records;
    totals = Core.Metrics.totals metrics;
    epoch = Core.Certifier.current_epoch (Core.Cluster.certifier cluster);
    divergent_log_entries = divergent_log_entries (Core.Cluster.certifier cluster);
    outage_max_ms = Core.Metrics.outage_max_ms metrics;
    lb_epoch = Core.Cluster.lb_epoch cluster;
    max_queue_depth = Core.Metrics.max_queue_depth metrics;
    zombie_commits =
      List.fold_left
        (fun acc r ->
          if Core.Cluster.was_shed cluster ~tid:r.Check.Runlog.tid then acc + 1
          else acc)
        0 records;
  }

let reproducible ?config ?params ?clients ?tiers ?protections ?offered_tps ~mode ~plan
    ~seed ~duration_ms () =
  let once () =
    soak ?config ?params ?clients ?tiers ?protections ?offered_tps ~mode ~plan ~seed
      ~duration_ms ()
  in
  let a = once () and b = once () in
  (a, String.equal a.digest b.digest)

let pp_result ppf r =
  let viol = List.fold_left (fun acc (_, n) -> acc + n) 0 r.violations in
  let n = total r in
  Format.fprintf ppf
    "%-7s %-13s seed=%-4d %s  committed=%-5d aborted=%-4d violations=%d%s%s  \
     drain=%.0fms  faults: drop=%d dup=%d delay=%d retx=%d suspects=%d failovers=%d \
     reprov=%d evict=%d%s%s%s  digest=%s"
    (Core.Consistency.to_string r.mode)
    (plan_name r.plan ^ if r.tiers then "+tiers" else "")
    r.seed
    (if ok r then "ok    " else "FAILED")
    r.committed r.aborted viol
    (if r.divergent_log_entries > 0 then
       Printf.sprintf " DIVERGENT=%d" r.divergent_log_entries
     else "")
    (if r.wedged then " WEDGED" else "")
    r.wedge_drain_ms
    (n "fault.drops") (n "fault.duplicates") (n "fault.delays")
    (n "net.retransmits" + n "certifier.retransmits")
    (n "detector.suspect") (n "detector.dead") (n "detector.reprovision")
    (n "certifier.evictions")
    (if r.epoch > 0 then
       Printf.sprintf " epoch=%d promotions=%d fenced=%d outage_max=%.0fms" r.epoch
         (n "certifier.promotions") (fenced r) r.outage_max_ms
     else "")
    (if n "certifier.elections" + n "lb.takeovers" + n "certifier.lease_expiries" > 0 then
       Printf.sprintf " elections=%d denials=%d leases=%d lb_takeovers=%d lb_fenced=%d"
         (n "certifier.elections") (n "certifier.vote_denials")
         (n "certifier.lease_expiries") (n "lb.takeovers") (n "lb.fenced")
     else "")
    (let shed = n "txn.shed" and expired = n "txn.deadline_expired"
     and budget_out = n "txn.retry_budget_exhausted" in
     if shed + expired + budget_out + r.zombie_commits > 0 then
       Printf.sprintf " shed=%d expired=%d budget_out=%d max_queue=%d zombies=%d" shed
         expired budget_out r.max_queue_depth r.zombie_commits
     else "")
    (String.sub r.digest 0 12)

(* Per-run health timeline artifact: what the soak injected and what the
   cluster did about it, one object per run — uploaded by CI when a soak
   fails so the failure is diagnosable without a local rerun. *)
let result_json r =
  let num n = Obs.Json.Num (float_of_int n) in
  let counts pairs =
    Obs.Json.Obj (List.map (fun (name, n) -> (name, num n)) pairs)
  in
  Obs.Json.Obj
    [
      ("mode", Obs.Json.Str (Core.Consistency.to_string r.mode));
      ("plan", Obs.Json.Str (plan_name r.plan));
      ("seed", num r.seed);
      ("tiers", Obs.Json.Bool r.tiers);
      ("ok", Obs.Json.Bool (ok r));
      ("committed", num r.committed);
      ("aborted", num r.aborted);
      ("aborts_by_reason", counts r.aborts_by_reason);
      ("violations", counts r.violations);
      ("divergent_log_entries", num r.divergent_log_entries);
      ("wedged", Obs.Json.Bool r.wedged);
      ("wedge_drain_ms", Obs.Json.Num r.wedge_drain_ms);
      ("totals", counts r.totals);
      ("epoch", num r.epoch);
      ("lb_epoch", num r.lb_epoch);
      ("outage_max_ms", Obs.Json.Num r.outage_max_ms);
      ("max_queue_depth", num r.max_queue_depth);
      ("zombie_commits", num r.zombie_commits);
      ("digest", Obs.Json.Str r.digest);
    ]

let health_json results =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Num 3.0);
      ("runs", Obs.Json.Arr (List.map result_json results));
    ]

let write_health results ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string (health_json results));
      output_char oc '\n')

let soak_matrix ?config ?params ?clients ?tiers ?protections ?offered_tps
    ?(modes = Core.Consistency.all) ?(plans = [ Mixed ]) ?(jobs = 1) ~seeds ~duration_ms
    () =
  (* The matrix order (plans, then modes, then seeds) is part of the
     harness contract: results come back in it whatever [jobs] is, and
     per-run lines are logged after collection so the output stream is
     identical too. Each soak is one self-contained simulation, so runs
     only share the work queue. *)
  let combos =
    List.concat_map
      (fun plan ->
        List.concat_map (fun mode -> List.map (fun seed -> (plan, mode, seed)) seeds) modes)
      plans
  in
  let results =
    Runner.map_jobs ~jobs
      (fun (plan, mode, seed) ->
        soak ?config ?params ?clients ?tiers ?protections ?offered_tps ~mode ~plan ~seed
          ~duration_ms ())
      combos
  in
  List.iter (fun r -> Log.info (fun m -> m "%a" pp_result r)) results;
  results
