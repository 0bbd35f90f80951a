(** The replicated database system: load balancer + certifier + replicas
    wired over a simulated network, with the full client transaction
    flow of §IV.

    {!submit} must be called from within a simulation process (see
    {!Sim.Process.spawn} or the {!Client} driver); it blocks for the
    virtual duration of the transaction and returns its outcome with the
    six-stage latency breakdown. *)

type t

val create :
  ?config:Config.t ->
  ?tracing:bool ->
  ?trace_capacity:int ->
  ?faults:(Sim.Engine.t -> Sim.Faults.t) ->
  mode:Consistency.mode ->
  schemas:Storage.Schema.t list ->
  load:(Storage.Database.t -> unit) ->
  unit ->
  t
(** Build a cluster: every replica gets the schemas and is populated by
    [load]. Spawns the per-replica sequencer processes and, if
    configured, the MVCC vacuum process. Raises [Invalid_argument] when
    the configuration fails {!Config.validate}.

    With [~tracing:true] (default [false]) the cluster owns an
    {!Obs.Trace.t} and every component emits spans into it; virtual
    timings are unaffected (see {!Obs.Trace}). [trace_capacity] bounds
    the span ring buffer (default 65536).

    [faults] builds a {!Sim.Faults} plan against the cluster's engine;
    the plan is attached to the network and to every component's
    service-time model (gray slowdowns), every injected fault event is
    mirrored into {!metrics}, and the plan's totals join the {!probes}
    as [fault.*]. The plan owns its
    own RNG, so attaching an all-{!Sim.Faults.clean} plan leaves the
    run's event stream bit-identical to no plan at all. Pair with
    [Config.reliable] (see {!Config.hardened}) so the protocol actually
    retransmits and detects failures under the plan. *)

val engine : t -> Sim.Engine.t
val config : t -> Config.t
val mode : t -> Consistency.mode
val metrics : t -> Metrics.t
val certifier : t -> Certifier.t
val load_balancer : t -> Load_balancer.t
(** The {e currently active} LB instance (see {!lb_active_index}). *)

val lb_instance : t -> int -> Load_balancer.t
(** LB instance [k] (0 = initial active, 1 = standby); test hook. *)

val lb_count : t -> int
(** 2 when [Config.lb_standby], else 1. *)

val lb_active_index : t -> int
(** Which instance clients currently route to. *)

val lb_epoch : t -> int
(** Routing epoch: 0 initially, bumped by every takeover. Commit records
    carry the epoch that dispatched them ({!Check.Runlog.record}). *)

val lb_is_crashed : t -> int -> bool

val lb_takeovers : t -> int
(** Times a standby LB deposed a silent active and took over routing. *)

val lb_fenced : t -> int
(** Stale-LB-epoch events rejected: state pushes from a deposed active,
    and response relays whose dispatching instance was deposed
    mid-flight. *)

val lb_cert_fenced : t -> int
(** {!Load_balancer.cert_fenced} summed over instances. *)

val replica : t -> int -> Replica.t
val rng : t -> Util.Rng.t
(** A generator split from the cluster seed, for workload use. *)

val network : t -> Sim.Network.t

val faults : t -> Sim.Faults.t option
(** The materialized fault plan, if the cluster was built with one. *)

val reprovisions : t -> int
(** Replicas re-seeded by checkpoint state transfer after the failure
    detector saw them return from beyond log repair. *)

(** {2 Observability} *)

val trace : t -> Obs.Trace.t option
(** The cluster's trace context; [Some] iff created with [~tracing:true]. *)

val registry : t -> Obs.Registry.t
(** Named counters (commits, read-only commits, aborts, exhausted
    retries) and one gauge per {!probes} entry; always live — counters
    cost one increment. *)

type probe_kind = Gauge | Total
(** Whether a probe reads an instantaneous level or a monotonic total. *)

type probe = { name : string; kind : probe_kind; read : unit -> float }
(** One entry of the cluster's probe table. *)

val probes : t -> probe list
(** The probe table: every cluster gauge and monotonic total, declared
    once under one distinct name. Per-replica entries are [replicaN.*];
    [fault.*] entries exist only when a fault plan is attached. Both
    {!update_gauges} and {!start_observatory} are derived from it. *)

val update_gauges : t -> unit
(** Set each {!probes} entry's registry gauge from current state (a
    total's gauge holds its running value), and record the
    {!Metrics.health} snapshot. *)

val start_observatory : t -> Obs.Timeseries.t
(** Start the run-health observatory: a windowed {!Obs.Timeseries}
    ([Config.obs_window_ms] windows) fed by three channels — the
    {!Metrics} outcome observer (commit / read-only commit / abort
    counts plus response-time and per-stage latency histograms), a
    per-window delta counter per {!probes} total, and a window gauge per
    {!probes} gauge read at each window close. Every window close also
    calls {!update_gauges}. The observatory only reads state: an
    observed run executes the same events as a blind one (pinned by the
    determinism tests). *)

val stop_observatory : t -> Obs.Timeseries.t -> unit
(** Stop the observatory's window process, flush the final partial
    window and uninstall the outcome observer. *)

val submit : t -> sid:int -> Transaction.request -> Transaction.outcome
(** Run one transaction end to end. Records metrics and, when
    [record_log] is set, a {!Check.Runlog.record} for committed
    transactions. *)

(** {2 Run orchestration} *)

val run_for : t -> warmup_ms:float -> measure_ms:float -> unit
(** Advance virtual time by [warmup_ms], reset the metrics window (and
    discard any recorded log), then advance by [measure_ms]. *)

val records : t -> Check.Runlog.record list
(** Committed-transaction records collected in the current window
    (requires [record_log]). *)

val was_shed : t -> tid:int -> bool
(** Whether transaction [tid] was ever refused with
    {!Transaction.Overloaded} (LB admission, apply-lag governor, or the
    bounded certifier backlog). The chaos zombie-commit checker asserts
    no shed tid appears among {!records}. *)

val shed_count : t -> int
(** Distinct transactions shed so far (0 with overload knobs off). *)

(** {2 Fault injection} *)

val crash_replica : t -> int -> unit
(** Fail-stop the replica and remove it from routing and certification. *)

val recover_replica : t -> int -> unit
(** Bring the replica back: it replays the certifier log it missed (or,
    if the log was pruned past its outage, state-transfers a checkpoint
    from the freshest live peer first) and rejoins routing. *)

val crash_certifier : t -> unit
(** Fail-stop the certifier primary (requires [certifier_standbys > 0]).
    Update transactions queue until a standby is promoted — manually via
    {!failover_certifier}, or automatically by the standby failure
    detectors in reliable mode. *)

val failover_certifier : t -> unit
(** Manually promote the best eligible standby ({!Certifier.failover}). *)

val revive_certifier_node : t -> int -> unit
(** Bring a crashed certifier group member back
    ({!Certifier.revive_node}): a deposed ex-primary rejoins as a
    standby and is reconciled against the ruling epoch. *)

val crash_lb : t -> int -> unit
(** Fail-stop LB instance [k]: it stops pushing state, client requests
    routed to it time out, and response relays stall until the standby
    takes over. Raises [Invalid_argument] without [Config.lb_standby] —
    crashing the only LB would wedge the cluster forever. *)

val recover_lb : t -> int -> unit
(** Revive LB instance [k]. If it still believes itself active it
    resumes pushing and is fenced (then deposed) by the successor's
    higher epoch; otherwise it resumes as the standby. *)
