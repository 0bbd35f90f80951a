(** Seeded fault-schedule soak harness (docs/FAULTS.md).

    Runs the hardened protocol ({!Core.Config.hardened}) under a named
    deterministic fault plan, feeds the committed-transaction runlog to
    the {!Check.Runlog} battery for the mode's consistency guarantee,
    and verifies the cluster did not wedge: after every fault window
    heals, commits must keep flowing and every live replica must catch
    up to the certifier. Everything — the fault schedule, the workload,
    the wedge drain — derives from [seed] and [duration_ms], so a run
    is reproducible bit for bit ({!reproducible}). *)

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
          Promotions are automatic; the soak requires at least one, zero
          consistency violations and zero decision divergence across the
          group's log copies. Forces [certifier_standbys >= 2]. *)
  | ControlPlane
      (** combined control-plane havoc: a certifier standby is
          partitioned away while the primary is healthy (exercising the
          partitioned-voter lease under [standby_ack_quorum = all]),
          then the active LB is crashed (the standby LB must take over
          routing with session floors intact), and while the LB outage
          still holds the certifier primary is crashed (the survivors
          must elect a successor by quorum vote). Requires at least one
          automatic promotion AND one LB takeover, zero violations,
          zero divergent log entries. Forces [certifier_standbys >= 2],
          [lb_standby], and a nonzero [voter_lease_ms]. *)
  | Overload
      (** metastable-failure reproduction (docs/FAULTS.md, "Overload"):
          an {e open-loop} arrival process offers more load than the
          cluster can serve while a gray slowdown hits the certifier —
          the trigger whose retry storm outlives the fault. The soak
          arms the full protection stack (admission cap, bounded
          certifier backlog, apply-lag governor, retry budget,
          deadlines) unless [~protections:false]; it requires at least
          one shed, zero zombie commits, zero violations, and bounded
          post-heal recovery. *)

val plan_name : plan -> string

val plans : plan list
(** Every plan, in declaration order. *)

type result = {
  mode : Core.Consistency.mode;
  plan : plan;
  seed : int;
  tiers : bool;  (** the run used the mixed-tier read workload *)
  committed : int;
  aborted : int;
  aborts_by_reason : (string * int) list;
  violations : (string * int) list;  (** checker name, violation count *)
  wedged : bool;
      (** true if the post-heal drain saw no commits, or a live replica
          failed to reach the certifier's pre-drain version *)
  wedge_drain_ms : float;
      (** virtual time from the start of the post-heal drain until the
          cluster both committed again and every live replica caught up
          (sampled at 1/20th-drain granularity; the full drain span when
          wedged) *)
  digest : string;  (** {!Check.Runlog.digest} of the measured window *)
  totals : (string * int) list;
      (** every {!Core.Cluster.probes} total's count over the run
          (measured window plus drain), keyed by catalog name
          ({!Core.Metrics.totals}); read with {!total} *)
  epoch : int;  (** final certifier epoch (0 when no failover happened) *)
  lb_epoch : int;  (** final LB routing epoch (0 when no takeover) *)
  divergent_log_entries : int;
      (** versions whose writeset differs between two certifier group
          members' retained logs (must be 0) *)
  outage_max_ms : float;
      (** widest commit-outage window an automatic promotion closed *)
  max_queue_depth : int;
      (** deepest certifier backlog / admitted-in-flight depth observed *)
  zombie_commits : int;
      (** committed records whose tid was also shed (must be 0) *)
}

val total : result -> string -> int
(** [total r name] is the run's count for catalog total [name] (e.g.
    ["fault.drops"], ["certifier.promotions"], ["txn.shed"]); 0 when the
    cluster had no such entry. *)

val ok : result -> bool
(** No checker violations, no duplicate commit versions, no divergent
    certifier log entries, no zombie commits, not wedged — and, under
    {!CertFailover}, at least one automatic promotion; under
    {!ControlPlane}, at least one automatic promotion and one LB
    takeover; under {!Overload}, at least one shed. *)

val build_plan :
  plan -> seed:int -> duration_ms:float -> replicas:int -> Sim.Engine.t -> Sim.Faults.t
(** The fault plan a soak attaches ([Core.Cluster.create ~faults]):
    derived only from [seed] and [duration_ms], every window closed by
    [0.75 * duration_ms]. *)

val default_params : Workload.Microbench.params
(** The microbench a soak loads and drives when none is given. *)

val default_config : seed:int -> Core.Config.t
(** The config a soak runs under when none is given: a hardened
    3-replica cluster with [record_log] on. Exposed so CLI overrides
    can start from the same base the soak would use. *)

val soak :
  ?config:Core.Config.t ->
  ?params:Workload.Microbench.params ->
  ?clients:int ->
  ?tiers:bool ->
  ?protections:bool ->
  ?offered_tps:float ->
  mode:Core.Consistency.mode ->
  plan:plan ->
  seed:int ->
  duration_ms:float ->
  unit ->
  result
(** One soak run. [config] defaults to a hardened 3-replica cluster
    with [record_log] on; [seed] overrides the config's seed so it
    drives both the cluster and the fault plan. [tiers] (default false)
    turns on [read_tiers] and drives the mixed-tier read workload
    ({!Workload.Microbench.tiered_workload}), so the tier contracts in
    the battery are exercised under faults rather than vacuously
    empty. [protections] (default true) and [offered_tps] (default
    6000, the aggregate open-loop arrival rate — comfortably past the
    gray-window capacity for every mode) only affect the
    {!Overload} plan: [~protections:false] leaves every overload knob
    off — the control arm that demonstrates the metastable collapse. *)

val reproducible :
  ?config:Core.Config.t ->
  ?params:Workload.Microbench.params ->
  ?clients:int ->
  ?tiers:bool ->
  ?protections:bool ->
  ?offered_tps:float ->
  mode:Core.Consistency.mode ->
  plan:plan ->
  seed:int ->
  duration_ms:float ->
  unit ->
  result * bool
(** Run the same soak twice; the boolean is whether the two runlog
    digests were identical (the bit-reproducibility claim). *)

val soak_matrix :
  ?config:Core.Config.t ->
  ?params:Workload.Microbench.params ->
  ?clients:int ->
  ?tiers:bool ->
  ?protections:bool ->
  ?offered_tps:float ->
  ?modes:Core.Consistency.mode list ->
  ?plans:plan list ->
  ?jobs:int ->
  seeds:int list ->
  duration_ms:float ->
  unit ->
  result list
(** The full grid: every plan x mode x seed (defaults: the paper's four
    modes under the [Mixed] plan). [jobs] (default 1) runs that many
    soaks concurrently on separate domains ({!Runner.map_jobs}); every
    run is an independent simulation, so results — order, digests, and
    per-run log lines — are identical whatever [jobs] is. *)

val pp_result : Format.formatter -> result -> unit

val health_json : result list -> Obs.Json.t
(** The per-mode health timeline artifact: one object per run (plan,
    seed, verdict, commit/abort counts, violation counts by checker,
    the catalog's window totals under ["totals"], wedge-drain time,
    digest) under a versioned envelope ([schema_version] 3). CI uploads
    this when a soak fails. *)

val write_health : result list -> file:string -> unit
