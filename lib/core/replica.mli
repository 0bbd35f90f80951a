(** A database replica: proxy + standalone DBMS (§IV).

    The replica owns a full copy of the database, a CPU resource shared
    by query execution and refresh application, and a {e commit
    sequencer} that applies local commits and refresh transactions in
    the certifier's total order. Consecutive refresh writesets are
    dequeued as one run (a single writeset at
    [Config.apply_parallelism = 1]) and [V_local] advances past the run
    once all of it is installed.

    The proxy responsibilities implemented here:
    - queueing refresh writesets and applying them in version order;
    - the synchronization start delay ({!await_version});
    - early certification (hidden-deadlock avoidance): an update
      statement conflicting with a pending refresh writeset aborts, and
      an arriving refresh writeset aborts conflicting active local
      transactions;
    - crash / recovery in the crash-recovery failure model. *)

type t

type local_commit = (float, Transaction.abort_reason) result
(** [Ok start] carries the virtual time at which the sequencer began the
    commit work, letting the caller split its wait into the paper's
    "sync" (waiting for predecessors) and "commit" (own commit) stages. *)

val create :
  ?obs:Obs.Trace.t -> ?metrics:Metrics.t -> Sim.Engine.t -> Config.t ->
  rng:Util.Rng.t -> id:int -> Storage.Database.t -> t
(** With [obs], the sequencer emits a [refresh.apply] span (component
    [Replica id]) for every remote writeset it applies, joining the
    committing transaction's trace when the refresh carried its id; a
    run of more than one writeset additionally emits a
    [refresh.apply_batch] span covering the fork/join. With [metrics],
    each run is recorded via {!Metrics.note_apply_group}. *)

val start : t -> unit
(** Spawn the commit-sequencer process. Call once, before the run. *)

val id : t -> int

val database : t -> Storage.Database.t

val cpu : t -> Sim.Resource.t

val v_local : t -> int

val held : t -> int
(** The highest version [v] such that this replica holds every version
    up to [v]: applied, being applied, or queued for its sequencer. A
    replica that is busy applying a backlog still holds it; only a lost
    refresh leaves [held] behind the certifier's log. *)

val is_crashed : t -> bool

(** {2 Transaction-side operations (called from a transaction process)} *)

val await_version : ?deadline:float -> t -> int -> (unit, Transaction.abort_reason) result
(** Block until [V_local >= v] (the synchronization start delay).
    Returns [Error Replica_failure] if the replica crashes meanwhile,
    and [Error Timeout] if [deadline] (absolute virtual time) passes
    first — the lossy-network guard against waiting on a version the
    replica may never receive. No deadline = wait forever. *)

val begin_txn : t -> tid:int -> Storage.Txn.t
(** Start a local transaction on the current snapshot and register it
    for early certification. *)

val abort_requested : t -> tid:int -> bool
(** Whether a refresh writeset conflicted with this transaction. *)

val early_certify : t -> Storage.Txn.t -> bool
(** Check the transaction's current writeset against the pending
    refresh writesets — received and still queued; one the sequencer has
    dequeued no longer counts, even before it is published. [false]
    means conflict. *)

val finish_txn : t -> tid:int -> unit
(** Deregister from early certification (after commit or abort). *)

val exec_statement : t -> Storage.Txn.t -> Storage.Query.t -> Storage.Query.result
(** Execute one statement, charging CPU for its measured row work. *)

val commit_local : t -> version:int -> ws:Storage.Writeset.t -> local_commit Sim.Ivar.t
(** Enqueue this transaction's commit at its certified version; the
    ivar fills when the sequencer has committed it locally (or the
    replica crashed first). The wait is the paper's "sync" stage.
    Idempotent against the certifier's repair loop: if a repair resend
    already delivered (or applied) this version as a refresh, the slot
    is reclaimed (or the commit completes immediately) — the writesets
    are identical. *)

val commit_read_only : t -> Storage.Txn.t -> unit
(** Local read-only commit: cheap, no certification. *)

(** {2 Certifier-side operations} *)

val receive_refresh_batch :
  ?epoch:int -> t -> (int option * int * Storage.Writeset.t) list -> unit
(** Deliver one certifier batch of [(trace, version, writeset)] refresh
    transactions (called via the network; the {!Certifier.subscribe}
    callback). [epoch] (default 0) is the releasing certifier's epoch:
    batches from an epoch older than the highest seen are fenced —
    dropped whole and counted in {!fenced_refreshes} — so a deposed
    primary's stragglers cannot land versions from a dead history; a
    higher epoch is adopted. For each surviving writeset: aborts
    conflicting active local transactions (early certification) and
    queues it for the sequencer. Delivery is idempotent — versions are
    the sequence numbers, and any
    version already applied or already queued (including a pending local
    commit) is silently dropped, making duplicated batches and the
    certifier's repair resends safe. The whole batch is dropped while
    crashed. How the queued writesets are then grouped into runs and
    conflict-partitioned lanes is governed by
    [Config.apply_parallelism]. *)

val cert_epoch : t -> int
(** Highest certifier epoch seen on any refresh batch. *)

val fenced_refreshes : t -> int
(** Stale-epoch refresh batches dropped by the epoch fence. *)

val set_on_commit : t -> (version:int -> unit) -> unit
(** Hook invoked after every local apply/commit (used for eager acks). *)

(** {2 Fault injection} *)

val set_faults : t -> Sim.Faults.t -> unit
(** Attach the cluster's fault plan: the replica consults
    {!Sim.Faults.slowdown} (keyed by its id) on every service time,
    modelling gray failure. Without slowdown windows this multiplies by
    1.0 — behaviour is unchanged. *)

val crash : t -> unit
(** Fail-stop: aborts all in-flight local work and cancels the refresh
    run being applied — nothing of it is installed after the crash,
    published or acknowledged. Durable state ([V_local] and the
    database) survives. *)

val recover : t -> missed:(int * Storage.Writeset.t) list -> unit
(** Rejoin with the writesets missed while down (from
    {!Certifier.writesets_from}); the sequencer resumes and drains
    them in order. *)

val state_transfer : t -> Storage.Database.t -> unit
(** Replace the local database with a copy of a peer's
    ({!Storage.Database.copy}): its tables, every version chain and its
    [V_local]. The copy shares the peer's intern table, which is the
    group's, so cached conflict ids on in-flight writesets stay valid.
    It also shares every table's slot arrays with the peer, so the
    peer, like this replica, pays one array copy per table on its next
    write to that table.
    Used for replicas whose outage outlived the certifier's pruned log.
    Only legal while crashed; follow with {!recover} for the residual
    log suffix. *)

(** {2 Introspection} *)

val active_local : t -> int

val pending_refresh : t -> int
(** Queued refresh writesets (the sequencer has not dequeued them). *)

val applied_refresh : t -> int
