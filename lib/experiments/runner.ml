(* The domains [map_jobs] spawns beside the calling one: one per
   further item at most, and no more than the runtime recommends, so a
   large [--jobs] cannot ask for more domains than the runtime allows. *)
let spawn_count ~jobs ~items ~recommended =
  max 0 (min (jobs - 1) (min (items - 1) (recommended - 1)))

(* [map_jobs ~jobs f items] = [List.map f items], computed by [jobs]
   domains. Each simulation is single-threaded and self-contained (its
   engine, RNG chain, and cluster state are all built inside [f]), so
   runs parallelize without sharing anything but the work queue; results
   land in their item's slot, preserving order. [jobs <= 1] takes the
   exact serial path — same closure, same order — so the parallel driver
   can never perturb a serial run's behavior. *)
let map_jobs ?(jobs = 1) f items =
  if jobs <= 1 then List.map f items
  else begin
    let arr = Array.of_list items in
    let n = Array.length arr in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (f arr.(i));
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      spawn_count ~jobs ~items:n ~recommended:(Domain.recommended_domain_count ())
    in
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join domains)
      (fun () -> worker ());
    Array.to_list
      (Array.map (function Some x -> x | None -> assert false) out)
  end

type workload =
  | Micro of Workload.Microbench.params
  | Tiered of Workload.Microbench.params * Core.Consistency.read_tier option
  | Span of Workload.Microbench.params * int
  | Hot_key of Workload.Microbench.params * int
  | Tpcw of Workload.Tpcw.params * Workload.Tpcw.mix
  | Tpcc of Workload.Tpcc.params * float
  | Ycsb of Workload.Ycsb.params * Workload.Ycsb.mix

type arrival =
  | Closed
  | Open of float

(* --- fault plans ---------------------------------------------------- *)

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
       must all be epoch-fenced. The schedule crashes the initial
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
       - [0.25d, 0.55d]: the active LB is crashed by the schedule
         (below); the standby LB must take over routing with floors
         intact, and the deposed instance is fenced when it returns;
       - [0.45d, 0.62d]: the certifier primary is crashed by the
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

(* The plan's crash/revive processes. Each keeps its exact sleep
   sequence: [sleep 0.45d; sleep 0.25d] is not the same float time as
   one sleep of [0.70d]. *)
let spawn_schedule plan cluster ~duration_ms =
  let engine = Core.Cluster.engine cluster in
  let replicas = (Core.Cluster.config cluster).Core.Config.replicas in
  match plan with
  | Mixed when replicas > 1 ->
    (* Fail-stop a replica during the faulty window and bring it back
       before the drain tail. *)
    Sim.Process.spawn engine (fun () ->
        let victim = 2 mod replicas in
        Sim.Process.sleep engine (0.45 *. duration_ms);
        Core.Cluster.crash_replica cluster victim;
        (* Long enough (at the default 2s duration) for the detector to
           declare it dead before it returns. *)
        Sim.Process.sleep engine (0.25 *. duration_ms);
        Core.Cluster.recover_replica cluster victim)
  | CertFailover ->
    (* Fail-stop the initial primary mid-load (it is also partitioned by
       the plan, so the kill is indistinguishable from a network cut
       until it returns) and revive it while the cut still holds — it
       rejoins as a standby only after the heal, via epoch adoption and
       log reconciliation. Promotion itself is automatic. *)
    Sim.Process.spawn engine (fun () ->
        Sim.Process.sleep engine (0.18 *. duration_ms);
        Core.Cluster.crash_certifier cluster;
        Sim.Process.sleep engine (0.24 *. duration_ms);
        Core.Cluster.revive_certifier_node cluster 0)
  | ControlPlane ->
    (* Crash the active LB while the certifier group is digesting a
       partitioned voter, then crash the certifier primary while the LB
       outage still holds — both successors must come up, by takeover
       and by election, with no released guarantee lost. *)
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
  | Clean | Lossy | Partitions | Gray | Mixed | Overload -> ()

(* --- points --------------------------------------------------------- *)

type point = {
  mode : Core.Consistency.mode;
  workload : workload;
  replicas : int;
  clients : int;
  warmup_ms : float;
  measure_ms : float;
  seed : int;
  config : Core.Config.t;
  arrival : arrival;
  faults : plan option;
  drain : bool;
}

let micro_point ~quick ~seed ?(config = Core.Config.default) ?(clients = 80) mode
    ~update_types =
  let rows = if quick then 2_000 else Workload.Microbench.default.rows in
  let warmup_ms, measure_ms = if quick then (1_000.0, 4_000.0) else (2_000.0, 8_000.0) in
  {
    mode;
    workload = Micro { Workload.Microbench.default with rows; update_types };
    replicas = config.Core.Config.replicas;
    clients;
    warmup_ms;
    measure_ms;
    seed;
    config;
    arrival = Closed;
    faults = None;
    drain = false;
  }

let update_types (p : point) =
  match p.workload with
  | Micro params | Tiered (params, _) | Span (params, _) | Hot_key (params, _) ->
    params.Workload.Microbench.update_types
  | Tpcw _ | Tpcc _ | Ycsb _ -> invalid_arg "Runner.update_types: not a micro-benchmark"

(* --- the checker catalog -------------------------------------------- *)

(* Every run-log checker a [record_log] run is judged by, and whether
   it gates the mode: first-committer-wins (no lost or double-committed
   writes under GSI), epoch fencing, the control-plane and read-tier
   contracts always, plus the guarantee the mode advertises. The
   control-plane and read-tier contracts constrain only failover
   records and records of their own class, so they are trivially empty
   elsewhere; the mode-level guarantees are all computed too, so a
   weaker mode's log shows what it does not promise. *)
type checker = {
  name : string;
  gates : bool;
  check : Check.Runlog.record list -> Check.Runlog.violation list;
}

let checkers (mode : Core.Consistency.mode) =
  let open Core.Consistency in
  let c ?(gates = true) name check = { name; gates; check } in
  let strong = (match mode with Eager | Coarse -> true | _ -> false)
  and fine = (match mode with Fine -> true | _ -> false)
  and session = (match mode with Session -> true | _ -> false) in
  [
    c "first_committer_wins" Check.Runlog.first_committer_wins;
    c "epoch_fencing" Check.Runlog.epoch_fencing;
    c "election_safety" Check.Runlog.election_safety;
    c "lb_floor_preservation" Check.Runlog.lb_floor_preservation;
    c "tier_bounded_staleness" Check.Runlog.tier_bounded_staleness;
    c "tier_causal_ryw" Check.Runlog.tier_causal_ryw;
    c "tier_monotone_reads" Check.Runlog.tier_monotone_reads;
    c "strong_consistency" ~gates:strong Check.Runlog.strong_consistency;
    c "fine_strong_consistency" ~gates:fine Check.Runlog.fine_strong_consistency;
    c "session_consistency" ~gates:session Check.Runlog.session_consistency;
    c "monotone_session_snapshots" ~gates:session Check.Runlog.monotone_session_snapshots;
  ]
  @
  match mode with
  | Bounded k -> [ c "bounded_staleness" (Check.Runlog.bounded_staleness ~k) ]
  | Eager | Coarse | Fine | Session -> []

let gating mode =
  List.filter_map (fun c -> if c.gates then Some c.name else None) (checkers mode)

(* --- summaries ------------------------------------------------------ *)

type tier_row = {
  slug : string;
  tier_committed : int;
  mean_ms : float;
  tier_p99_ms : float;
  mean_staleness : float;
  max_staleness : float;
}

type summary = {
  mode : Core.Consistency.mode;
  replicas : int;
  clients : int;
  tps : float;
  response_ms : float;
  p50_ms : float;
  p99_ms : float;
  stage_ms : float array;
  stage_update_ms : float array;
  sync_delay_ms : float;
  abort_rate : float;
  committed : int;
  aborted : int;
  aborts_by_reason : (string * int) list;
  totals : (string * int) list;
  max_queue_depth : int;
  outage_max_ms : float;
  epoch : int;
  lb_epoch : int;
  tiers : tier_row list;
  logged : int;
  violations : (string * int) list;
  digest : string;
  zombie_commits : int;
  wedged : bool;
  drain_ms : float;
  divergent_log_entries : int;
}

let total s name = Option.value ~default:0 (List.assoc_opt name s.totals)

let battery s = List.map (fun name -> (name, List.assoc name s.violations)) (gating s.mode)

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

(* The post-run drain: every fault window has healed; a live cluster
   must keep committing and every replica must catch up to where the
   certifier stood at the start of the drain. Either failing means it
   wedged. Returns [(wedged, ms until healthy)]. *)
let drain cluster ~span_ms =
  let engine = Core.Cluster.engine cluster in
  let metrics = Core.Cluster.metrics cluster in
  let committed_before = Core.Metrics.committed metrics in
  let cert_version_before = Core.Certifier.version (Core.Cluster.certifier cluster) in
  let progressed () = Core.Metrics.committed metrics > committed_before in
  let caught_up () =
    let up = ref true in
    for i = 0 to (Core.Cluster.config cluster).Core.Config.replicas - 1 do
      let r = Core.Cluster.replica cluster i in
      if (not (Core.Replica.is_crashed r)) && Core.Replica.v_local r < cert_version_before
      then up := false
    done;
    !up
  in
  (* Step the drain in slices to time how long the cluster took to
     become healthy again. Running to intermediate horizons executes
     exactly the same events in the same order as one run to the full
     horizon, so digests are unaffected. *)
  let drain_start = Sim.Engine.now engine in
  let drain_span = 0.5 *. span_ms in
  let slices = 20 in
  let healthy_at = ref None in
  for slice = 1 to slices do
    Sim.Engine.run engine
      ~until:(drain_start +. (float_of_int slice /. float_of_int slices *. drain_span));
    if !healthy_at = None && progressed () && caught_up () then
      healthy_at := Some (Sim.Engine.now engine -. drain_start)
  done;
  (not (progressed () && caught_up ()), Option.value !healthy_at ~default:drain_span)

let tier_rows metrics =
  List.filter_map
    (fun slug ->
      let tier_committed = Core.Metrics.tier_committed metrics slug in
      if tier_committed = 0 then None
      else
        Some
          {
            slug;
            tier_committed;
            mean_ms = Core.Metrics.tier_mean_response_ms metrics slug;
            tier_p99_ms = Core.Metrics.tier_percentile_response_ms metrics slug 99.0;
            mean_staleness = Core.Metrics.tier_mean_staleness metrics slug;
            max_staleness = Core.Metrics.tier_max_staleness metrics slug;
          })
    Core.Consistency.all_tier_slugs

(* The run log is read only when the point records one: figure points
   pay for none of the checker catalog. The first violations of each
   gating checker go to stderr. *)
let judge_log cluster (p : point) =
  let records = Core.Cluster.records cluster in
  let violations =
    List.map
      (fun { name; gates; check } ->
        let vs = check records in
        if gates then
          List.iteri
            (fun i v ->
              if i < 3 then
                Format.eprintf "[%s seed=%d] %s: %a@."
                  (Core.Consistency.to_string p.mode)
                  p.seed name Check.Runlog.pp_violation v)
            vs;
        (name, List.length vs))
      (checkers p.mode)
  in
  let zombies =
    List.fold_left
      (fun acc r ->
        if Core.Cluster.was_shed cluster ~tid:r.Check.Runlog.tid then acc + 1 else acc)
      0 records
  in
  (List.length records, violations, Check.Runlog.digest records, zombies)

let summarize cluster (p : point) ~drained =
  let metrics = Core.Cluster.metrics cluster in
  let per_stage mean = Array.of_list (List.map (mean metrics) Core.Metrics.stages) in
  let config = Core.Cluster.config cluster in
  let logged, violations, digest, zombie_commits =
    if config.Core.Config.record_log then judge_log cluster p else (0, [], "", 0)
  in
  let wedged, drain_ms, divergent_log_entries =
    match drained with
    | None -> (false, 0.0, 0)
    | Some (wedged, drain_ms) ->
      (wedged, drain_ms, divergent_log_entries (Core.Cluster.certifier cluster))
  in
  {
    mode = p.mode;
    replicas = config.Core.Config.replicas;
    clients = p.clients;
    tps = Core.Metrics.throughput_tps metrics;
    response_ms = Core.Metrics.mean_response_ms metrics;
    p50_ms = Core.Metrics.percentile_response_ms metrics 50.0;
    p99_ms = Core.Metrics.percentile_response_ms metrics 99.0;
    stage_ms = per_stage Core.Metrics.mean_stage_ms;
    stage_update_ms = per_stage Core.Metrics.mean_stage_update_ms;
    sync_delay_ms = Core.Metrics.sync_delay_ms metrics;
    abort_rate = Core.Metrics.abort_rate metrics;
    committed = Core.Metrics.committed metrics;
    aborted = Core.Metrics.aborted metrics;
    aborts_by_reason = Core.Metrics.aborts_by_reason metrics;
    totals = Core.Metrics.totals metrics;
    max_queue_depth = Core.Metrics.max_queue_depth metrics;
    outage_max_ms = Core.Metrics.outage_max_ms metrics;
    epoch = Core.Certifier.current_epoch (Core.Cluster.certifier cluster);
    lb_epoch = Core.Cluster.lb_epoch cluster;
    tiers = (if config.Core.Config.read_tiers then tier_rows metrics else []);
    logged;
    violations;
    digest;
    zombie_commits;
    wedged;
    drain_ms;
    divergent_log_entries;
  }

(* Event order: create the cluster with the plan's faults, spawn the
   plan's schedule, spawn the clients, run warm-up and measurement,
   drain, summarize. *)
let run_point (p : point) =
  let config = { p.config with Core.Config.replicas = p.replicas; seed = p.seed } in
  let span_ms = p.warmup_ms +. p.measure_ms in
  let faults =
    Option.map
      (fun plan -> build_plan plan ~seed:p.seed ~duration_ms:span_ms ~replicas:p.replicas)
      p.faults
  in
  let schemas, load =
    match p.workload with
    | Micro params | Tiered (params, _) | Span (params, _) | Hot_key (params, _) ->
      (Workload.Microbench.schemas params, Workload.Microbench.load params)
    | Tpcw (params, _) -> (Workload.Tpcw.schemas, Workload.Tpcw.load params)
    | Tpcc (params, _) -> (Workload.Tpcc.schemas, Workload.Tpcc.load params)
    | Ycsb (params, _) -> (Workload.Ycsb.schemas params, Workload.Ycsb.load params)
  in
  let cluster = Core.Cluster.create ~config ?faults ~mode:p.mode ~schemas ~load () in
  Option.iter (fun plan -> spawn_schedule plan cluster ~duration_ms:span_ms) p.faults;
  (* Every workload but TPC-W splits one RNG stream per client off the
     cluster RNG; TPC-W clients share it. *)
  let spawn_clients workload =
    match p.arrival with
    | Closed -> Core.Client.spawn_many cluster ~n:p.clients ~first_sid:0 workload
    | Open rate_tps ->
      Core.Client.open_loop_many cluster ~n:p.clients ~first_sid:0 ~rate_tps workload
  in
  (match p.workload with
  | Micro params -> spawn_clients (Workload.Microbench.workload params)
  | Tiered (params, bounded_tier) ->
    spawn_clients (Workload.Microbench.tiered_workload ?bounded_tier params)
  | Span (params, span) -> spawn_clients (Workload.Microbench.span_workload params ~span)
  | Hot_key (params, hot_rows) ->
    spawn_clients (Workload.Microbench.hot_workload params ~hot_rows)
  | Tpcw (params, mix) ->
    if p.arrival <> Closed then invalid_arg "Runner.run_point: TPC-W is closed-loop only";
    for sid = 0 to p.clients - 1 do
      Core.Client.spawn cluster ~sid ~rng:(Core.Cluster.rng cluster)
        (Workload.Tpcw.workload params mix ~sid)
    done
  | Tpcc (params, think_mean_ms) ->
    spawn_clients
      {
        (Workload.Tpcc.workload params) with
        Core.Client.think_ms = Core.Client.exp_think ~mean_ms:think_mean_ms;
      }
  | Ycsb (params, mix) -> spawn_clients (Workload.Ycsb.workload params mix));
  Core.Cluster.run_for cluster ~warmup_ms:p.warmup_ms ~measure_ms:p.measure_ms;
  let drained = if p.drain then Some (drain cluster ~span_ms) else None in
  summarize cluster p ~drained

let run ?jobs points = map_jobs ?jobs run_point points

type artifact = {
  points : point list;
  render : (point * summary) list -> string;
}

(* Pair each point with its summary; return the summaries left over. *)
let rec zip_prefix points summaries =
  match (points, summaries) with
  | [], rest -> ([], rest)
  | p :: points, s :: summaries ->
    let pairs, rest = zip_prefix points summaries in
    ((p, s) :: pairs, rest)
  | _ :: _, [] -> invalid_arg "Runner.zip_prefix: fewer summaries than points"

let render_all ?jobs artifacts =
  let summaries = run ?jobs (List.concat_map (fun a -> a.points) artifacts) in
  snd
    (List.fold_left_map
       (fun summaries a ->
         let pairs, rest = zip_prefix a.points summaries in
         (rest, a.render pairs))
       summaries artifacts)

let lookup pairs pred = snd (List.find (fun (p, _) -> pred p) pairs)

let distinct xs =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)
