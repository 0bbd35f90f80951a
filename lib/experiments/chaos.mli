(** Seeded fault-schedule soak (docs/FAULTS.md): point constructors and
    verdicts over {!Runner} results.

    A soak point runs the hardened protocol ({!Core.Config.hardened})
    under a named deterministic fault plan ({!Runner.plan}) with the
    post-run drain on; {!Runner.run_point} feeds its run log to the
    checker catalog and judges whether the cluster wedged. Everything —
    the fault schedule, the workload, the wedge drain — derives from
    [seed] and [duration_ms], so running a point twice gives the same
    digest bit for bit. *)

val default_params : Workload.Microbench.params
(** The microbench a soak loads and drives when none is given. *)

val default_config : seed:int -> Core.Config.t
(** The config a soak runs under when none is given: a hardened
    3-replica cluster with [record_log] on. Exposed so CLI overrides
    can start from the same base the soak would use. *)

val point :
  ?config:Core.Config.t ->
  ?params:Workload.Microbench.params ->
  ?clients:int ->
  ?tiers:bool ->
  ?protections:bool ->
  ?offered_tps:float ->
  mode:Core.Consistency.mode ->
  plan:Runner.plan ->
  seed:int ->
  duration_ms:float ->
  unit ->
  Runner.point
(** One soak point: [duration_ms] measured from time 0, the plan's
    faults and schedule, then the drain. [config] defaults to
    {!default_config}; [seed] overrides its seed and [record_log] is
    forced on. The plan's config needs are applied here: [CertFailover]
    forces [certifier_standbys >= 2]; [ControlPlane] forces
    [certifier_standbys >= 2], [lb_standby] and a nonzero
    [voter_lease_ms]; [Overload] drives open-loop arrivals at
    [offered_tps] (default 6000, the aggregate rate — past the
    gray-window capacity for every mode) and arms
    [overload_protection] unless [~protections:false], the control
    arm that shows the metastable collapse. [tiers] (default false)
    turns on [read_tiers] and drives the mixed-tier read workload, so
    the tier contracts are exercised under faults rather than
    vacuously empty. *)

val points :
  ?config:Core.Config.t ->
  ?params:Workload.Microbench.params ->
  ?clients:int ->
  ?tiers:bool ->
  ?protections:bool ->
  ?offered_tps:float ->
  ?modes:Core.Consistency.mode list ->
  ?plans:Runner.plan list ->
  seeds:int list ->
  duration_ms:float ->
  unit ->
  Runner.point list
(** The soak matrix, in plan, then mode, then seed order (defaults: the
    paper's four modes under the [Mixed] plan). *)

val ok : Runner.point * Runner.summary -> bool
(** No violation in the mode's gating battery ({!Runner.battery}), no
    divergent certifier log entries, no zombie commits, not wedged —
    and, under [CertFailover], at least one automatic promotion; under
    [ControlPlane], at least one automatic promotion and one LB
    takeover; under [Overload], at least one shed. *)

val pp_result : Format.formatter -> Runner.point * Runner.summary -> unit
(** One result line, ending in the first 12 hex digits of the digest. *)

val health_json : (Runner.point * Runner.summary) list -> Obs.Json.t
(** The per-mode health timeline artifact: one object per run (plan,
    seed, verdict, commit/abort counts, gating violation counts by
    checker, the catalog's window totals under ["totals"], wedge-drain
    time, digest) under a versioned envelope ([schema_version] 3). CI
    uploads this when a soak fails. *)

val write_health : (Runner.point * Runner.summary) list -> file:string -> unit
