(** The experiment point table: every figure, sweep, ablation, chaos
    soak, read-tier frontier, overload sweep and consistency check is a
    list of pinned {!point}s, and {!run} runs any such list over a pool
    of domains. {!run_point} is the one code path that builds, drives,
    runs, drains and summarizes an experiment cluster, and {!summary}
    its one result type. An {!artifact} pairs a point list with the
    renderer that turns its results into one printed table. *)

val map_jobs : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_jobs ~jobs f items] is [List.map f items] computed by [jobs]
    domains pulling items off a shared queue; results keep their item's
    position. Each call to [f] must be self-contained (simulations are:
    engine, RNG, and cluster all live inside the run) — [f] runs off the
    main domain when [jobs > 1]. [jobs <= 1] (the default) is exactly
    [List.map f items] on the calling domain. It spawns
    [spawn_count ~jobs ~items:(List.length items)
    ~recommended:(Domain.recommended_domain_count ())] domains. *)

val spawn_count : jobs:int -> items:int -> recommended:int -> int
(** The domains {!map_jobs} spawns beside the calling one: [jobs - 1],
    but at most [items - 1] and at most [recommended - 1], and never
    below 0. *)

type workload =
  | Micro of Workload.Microbench.params
  | Tiered of Workload.Microbench.params * Core.Consistency.read_tier option
      (** the mixed-tier read workload ({!Workload.Microbench.tiered_workload}),
          with this tier for bounded reads when given *)
  | Span of Workload.Microbench.params * int
      (** micro-benchmark whose update transactions write this many tables *)
  | Hot_key of Workload.Microbench.params * int
      (** micro-benchmark whose updates hit this many hot rows per table *)
  | Tpcw of Workload.Tpcw.params * Workload.Tpcw.mix
  | Tpcc of Workload.Tpcc.params * float
      (** paced terminals with this mean exponential think time, ms *)
  | Ycsb of Workload.Ycsb.params * Workload.Ycsb.mix

type arrival =
  | Closed  (** one closed-loop client per session (the paper's RTEs) *)
  | Open of float
      (** open-loop Poisson arrivals at this aggregate rate (txn/s),
          split evenly over the point's clients; arrivals do not slow
          down when the cluster does. Not for TPC-W points. *)

(** {2 Fault plans (docs/FAULTS.md)} *)

type plan =
  | Clean  (** fault plan attached but all-clean: must match no plan at all *)
  | Lossy  (** i.i.d. drop/duplicate/delay on every link *)
  | Partitions  (** scheduled full and partial (asymmetric) partitions *)
  | Gray  (** no message loss; replica and certifier slowdown windows *)
  | Mixed
      (** loss + an extra-lossy refresh link + partition + slowdown + a
          scripted drop burst + one replica crash/recover cycle *)
  | CertFailover
      (** certifier-group havoc: the initial primary is crashed AND
          partitioned mid-load (returning into the cut, so it rejoins
          only after the heal via epoch adoption), then the promoted
          standby is partitioned while holding the role — a deposed but
          alive primary whose stragglers must all be epoch-fenced.
          Needs [certifier_standbys >= 2]. *)
  | ControlPlane
      (** combined control-plane havoc: a certifier standby is
          partitioned away while the primary is healthy (exercising the
          partitioned-voter lease under [standby_ack_quorum = all]),
          then the active LB is crashed (the standby LB must take over
          routing with session floors intact), and while the LB outage
          still holds the certifier primary is crashed (the survivors
          must elect a successor by quorum vote). Needs
          [certifier_standbys >= 2], [lb_standby] and a nonzero
          [voter_lease_ms]. *)
  | Overload
      (** metastable-failure trigger (docs/FAULTS.md, "Overload"): a
          gray slowdown of the certifier, meant to run under open-loop
          arrivals that offer more load than the slowed cluster can
          serve. *)

val plan_name : plan -> string

val plans : plan list
(** Every plan, in declaration order. *)

val build_plan :
  plan -> seed:int -> duration_ms:float -> replicas:int -> Sim.Engine.t -> Sim.Faults.t
(** The fault plan a point attaches ([Core.Cluster.create ~faults]):
    derived only from [seed] and [duration_ms], every window closed by
    [0.75 * duration_ms]. *)

(** {2 Points} *)

type point = {
  mode : Core.Consistency.mode;
  workload : workload;
  replicas : int;
  clients : int;  (** sessions: closed-loop clients or open-loop generators *)
  warmup_ms : float;
  measure_ms : float;
  seed : int;
  config : Core.Config.t;  (** [replicas] and [seed] above override its own *)
  arrival : arrival;
  faults : plan option;
      (** the fault plan and its crash/revive schedule, timed as
          fractions of [warmup_ms + measure_ms] and seeded by [seed] *)
  drain : bool;
      (** after the measured window, drain for half the run span in 20
          slices and judge whether the cluster wedged *)
}

val micro_point :
  quick:bool ->
  seed:int ->
  ?config:Core.Config.t ->
  ?clients:int ->
  Core.Consistency.mode ->
  update_types:int ->
  point
(** A point of the paper's micro-benchmark (§V.A): [Config.default]'s 8
    replicas, 80 clients, 40 tables of 10,000 rows (2,000 when [quick])
    and 2 s + 8 s windows (1 s + 4 s when [quick]). *)

val update_types : point -> int
(** The update transaction types of a micro-benchmark point.
    @raise Invalid_argument on another workload. *)

(** {2 The checker catalog} *)

type checker = {
  name : string;
  gates : bool;  (** a violation fails a run in this mode *)
  check : Check.Runlog.record list -> Check.Runlog.violation list;
}

val checkers : Core.Consistency.mode -> checker list
(** Every run-log checker a [record_log] run computes, in order:
    first-committer-wins, epoch fencing, election safety, LB floor
    preservation and the three read-tier contracts, which gate every
    mode, then every mode-level guarantee (strong, fine strong,
    session, monotone session snapshots; bounded staleness under
    [Bounded k] only), each gating only the mode that advertises it. *)

val gating : Core.Consistency.mode -> string list
(** The names, in catalog order, of the checkers that gate a run in
    this mode. *)

(** {2 Summaries} *)

type tier_row = {
  slug : string;  (** {!Core.Consistency.tier_slug} *)
  tier_committed : int;
  mean_ms : float;
  tier_p99_ms : float;
  mean_staleness : float;  (** versions behind [V_system] at commit *)
  max_staleness : float;
}

type summary = {
  mode : Core.Consistency.mode;
  replicas : int;
  clients : int;
  tps : float;
  response_ms : float;
  p50_ms : float;
  p99_ms : float;  (** 99th-percentile response time *)
  stage_ms : float array;  (** mean per {!Core.Metrics.stage}, all txns *)
  stage_update_ms : float array;  (** mean per stage, update txns *)
  sync_delay_ms : float;  (** version (all) + global (updates) *)
  abort_rate : float;
  committed : int;
  aborted : int;
  aborts_by_reason : (string * int) list;
  totals : (string * int) list;
      (** every {!Core.Cluster.probes} total's count over the window
          (drain included), keyed by catalog name; read with {!total} *)
  max_queue_depth : int;  (** deepest certifier backlog / admitted depth *)
  outage_max_ms : float;  (** widest commit outage a promotion closed *)
  epoch : int;  (** final certifier epoch (0 without failover) *)
  lb_epoch : int;  (** final LB routing epoch (0 without takeover) *)
  tiers : tier_row list;
      (** with [read_tiers]: one row per read tier that committed, in
          decreasing-strength order; otherwise empty *)
  logged : int;  (** run-log records ([record_log] points; else 0) *)
  violations : (string * int) list;
      (** violation count of every {!checkers} entry, in catalog order
          ([record_log] points; else empty); read with {!battery} *)
  digest : string;
      (** {!Check.Runlog.digest} of the run log ([record_log] points;
          else empty) *)
  zombie_commits : int;
      (** logged commits whose tid was also shed (must be 0) *)
  wedged : bool;
      (** drained points: the drain saw no commit, or a live replica
          failed to reach the certifier's pre-drain version *)
  drain_ms : float;
      (** drained points: virtual time until the cluster both committed
          again and every live replica caught up (1/20th-drain
          granularity; the full drain span when wedged) *)
  divergent_log_entries : int;
      (** drained points: versions whose writeset differs between two
          certifier group members' retained logs (must be 0) *)
}

val total : summary -> string -> int
(** [total s name] is the run's count for catalog total [name] (e.g.
    ["fault.drops"], ["txn.shed"]); 0 when the cluster had none. *)

val battery : summary -> (string * int) list
(** The violation counts of the mode's {!gating} checkers, in gating
    order. Needs a [record_log] point. *)

val run_point : point -> summary
(** Build the point's cluster with its fault plan, spawn the plan's
    crash/revive schedule, spawn the clients, run warm-up then
    measurement, drain if asked, and summarize. *)

val run : ?jobs:int -> point list -> summary list
(** {!run_point} on every point. The summaries come back in point order
    and do not depend on [jobs]. *)

(** {2 Artifacts} *)

type artifact = {
  points : point list;
  render : (point * summary) list -> string;
}

val render_all : ?jobs:int -> artifact list -> string list
(** Run the points of every artifact in one pool, then render each
    artifact from its own pairs, in list order. *)

val lookup : (point * summary) list -> (point -> bool) -> summary
(** The summary of the first point that satisfies the predicate.
    @raise Not_found if none does. *)

val distinct : 'a list -> 'a list
(** The values in order of first appearance, without repeats. *)
