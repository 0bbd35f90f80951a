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
(** Build a cluster. [load] runs once, populating version 0 of a
    database with the [schemas]; that database is replica 0's, and
    every other replica starts from a {!Storage.Database.copy} of it.
    A loader must therefore only populate the database it is given
    (every in-tree loader does). Spawns the per-replica sequencer and
    heartbeat processes, the detector sweep, the refresh repair and, if
    configured, the MVCC vacuum process. Raises
    [Invalid_argument] when the configuration fails {!Config.validate}.

    A cluster never goes idle, so [Sim.Engine.run] without [~until]
    never returns: run it to a horizon ({!run_for}, [Sim.Engine.run
    ~until]).

    With [~tracing:true] (default [false]) the cluster owns an
    {!Obs.Trace.t} and every component emits spans into it; virtual
    timings are unaffected (see {!Obs.Trace}). [trace_capacity] bounds
    the span ring buffer (default 65536).

    [faults] builds a {!Sim.Faults} plan against the cluster's engine;
    the plan is attached to the network and to every component's
    service-time model (gray slowdowns), and the plan's counters join
    the {!probes} as [fault.*] totals. The plan owns its own RNG, so
    attaching an all-{!Sim.Faults.clean} plan leaves the run's event
    stream bit-identical to no plan at all. Pair a plan with
    {!Config.hardened} so clients time out and retry elsewhere.

    Every [Total] entry of {!probes} is registered with {!metrics}
    ({!Metrics.add_total}), so its window count is readable as
    [Metrics.total (metrics t) name]. *)

val engine : t -> Sim.Engine.t
val config : t -> Config.t
val mode : t -> Consistency.mode
val metrics : t -> Metrics.t
val certifier : t -> Certifier.t
val load_balancer : t -> Load_balancer.t
(** The {e currently active} LB instance (see {!lb_active_index}). *)

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

val replica : t -> int -> Replica.t
val rng : t -> Util.Rng.t
(** A generator split from the cluster seed, for workload use. *)

val network : t -> Sim.Network.t

val faults : t -> Sim.Faults.t option
(** The materialized fault plan, if the cluster was built with one. *)

(** {2 Observability} *)

val trace : t -> Obs.Trace.t option
(** The cluster's trace context; [Some] iff created with [~tracing:true]. *)

type probe_kind = Gauge | Total
(** Whether a probe reads an instantaneous level or a monotonic total. *)

type probe = { name : string; kind : probe_kind; read : unit -> float }
(** One entry of the cluster's probe table. *)

val probes : t -> probe list
(** The probe table: every cluster gauge and monotonic total, declared
    once under one distinct name. Per-replica entries are [replicaN.*];
    [fault.*] entries exist only when a fault plan is attached. Every
    sink is derived from it: the {!Metrics} window totals, the
    observatory ({!start_observatory}) and {!pp_catalog}. *)

val pp_catalog : Format.formatter -> t -> unit
(** The catalog, one entry per line: every gauge's current reading,
    then every total whose window count ({!Metrics.totals}) is nonzero. *)

val note_retry_budget_exhausted : t -> unit
(** A client gave a transaction up on an empty retry budget
    ([Config.retry_budget]); the source of the
    [txn.retry_budget_exhausted] total. *)

val start_observatory : t -> Obs.Timeseries.t
(** Start the run-health observatory: a windowed {!Obs.Timeseries}
    ([Config.obs_window_ms] windows) fed by three channels — the
    {!Metrics} outcome observer (commit / read-only commit / abort
    counts plus response-time and per-stage latency histograms), a
    per-window delta counter per {!probes} total, and a window gauge per
    {!probes} gauge read at each window close. The observatory only
    reads state: an observed run executes the same events as a blind
    one (pinned by the determinism tests). *)

val stop_observatory : t -> Obs.Timeseries.t -> unit
(** Stop the observatory's window process, flush the final partial
    window and uninstall the outcome observer. *)

val submit : t -> sid:int -> Transaction.request -> Transaction.outcome
(** Run one transaction end to end. Records metrics and, when
    [record_log] is set, a {!Check.Runlog.record} for committed
    transactions. *)

(** {2 Run orchestration} *)

val run_for : t -> warmup_ms:float -> measure_ms:float -> unit
(** Advance virtual time by [warmup_ms], reset the metrics window
    ({!Metrics.reset_window}, which also rebases every window total) and
    discard any recorded log, then advance by [measure_ms]. *)

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
    if the log was pruned past its outage, first copies the database of
    the freshest live peer) and rejoins routing. *)

val crash_certifier : t -> unit
(** Fail-stop the certifier primary (requires [certifier_standbys > 0]).
    Update transactions queue until the standby failure detectors elect
    and promote a standby, or until the member is revived
    ({!revive_certifier_node}). *)

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
