(** The certifier (§IV): the single component that decides commits.

    It (a) certifies update transactions against GSI's
    first-committer-wins rule, (b) assigns the total commit order by
    handing out the database version counter [V_commit], (c) makes
    decisions durable (modelled as a log-force service time plus a
    standby acknowledgement quorum), and (d) forwards each committed
    writeset to the other replicas as a refresh transaction. For the
    eager configuration it additionally counts per-transaction commit
    acknowledgements and reports global commit.

    Certification runs on a single-server CPU resource, so decisions are
    totally ordered. The writeset log is retained (indexed by version),
    which doubles as the recovery log replicas replay after a crash.

    This module is the replication shell: the group, the pusher,
    elections, the lease, watermarks and the refresh fan-out. Each
    member's log and the keyed conflict index live in the
    simulator-free {!Certification} (docs/PROTOCOL.md, "Certification
    index and watermark GC"): first-committer-wins probes the request's
    writeset keys instead of scanning the log over (snapshot, V]. The
    paper's scan survives as the test oracle (test/test_certindex.ml).
    The index is soft state: pruned with the log, rebuilt from the
    promoted standby's log copy on every promotion.

    {b Applied watermarks}: replicas piggyback their applied [V_local]
    on certification requests ([?applied]) and per-version acks
    ({!ack}); {!gc} truncates log and index below
    [min(live watermarks) - Config.watermark_slack], replacing blind
    fixed-window pruning with a rule that tracks what replicas still
    need.

    {b Group certification} (docs/PROTOCOL.md, "Batched certification
    and refresh"): when requests queue faster than they are decided, the
    first waiter to win the CPU becomes the {e leader} and drains up to
    [Config.cert_batch] queued requests, certifying them in one pass in
    arrival order. Intra-batch write-write conflicts abort the later
    arrival; the batch is assigned a contiguous version range, forced to
    the log once, replicated to the standbys before release, and
    propagated as one refresh batch message per replica. With
    [cert_batch = 1] every batch is a singleton and the event sequence —
    sleeps, random draws, message sizes — is identical to unbatched
    certification.

    {b Certifier high availability} (docs/PROTOCOL.md, "Certifier HA"
    and "Control plane"): with [certifier_standbys > 0] the certifier
    is a {e group} of members, each with its own network endpoint
    ([Config.node_cert_standby]) and log copy. Decisions are released
    only after [Config.standby_ack_quorum] caught-up standbys
    acknowledged their replicated copy. The standbys detect a silent
    primary by heartbeat and elect a successor by a
    {e quorum-intersecting} vote, so no released decision can be
    re-assigned. Promotion bumps the {e epoch}; stale-epoch traffic is
    fenced, and a deposed primary rejoins as a standby via log
    reconciliation. With [Config.voter_lease_ms > 0] a voter whose acks
    go silent is demoted to learner after one lease window. *)

type t

type decision =
  | Commit of { version : int; epoch : int; global_commit : unit Sim.Ivar.t option }
      (** [epoch] is the certifier epoch that released the decision (0
          until a failover ever happens). [global_commit] is present
          only under {!Consistency.Eager}: it fills once every live
          replica has committed the transaction. *)
  | Abort
  | Overloaded
      (** Refused at arrival by the bounded backlog
          ([Config.cert_queue_bound]) — no queueing, no log work, no
          virtual time consumed, and therefore never also committed. *)
  | Expired
      (** Dropped because the request's [?deadline] had passed — either
          on arrival or after queueing, but always strictly before the
          conflict check, so an expired transaction never commits. *)

val create :
  ?obs:Obs.Trace.t -> ?metrics:Metrics.t -> ?intern:Storage.Intern.t -> Sim.Engine.t ->
  Config.t -> rng:Util.Rng.t -> network:Sim.Network.t -> mode:Consistency.mode -> t
(** [?intern] shares the replication group's conflict-key intern table
    (see {!Storage.Intern}): the keyed certification index is keyed by
    its dense ids, so writesets built against the same table certify
    without allocating or hashing strings. Defaults to a private table —
    foreign writesets are then resolved through it on arrival, which is
    always correct, just slower.

    With [obs], every certification request emits a service span
    (component {!Obs.Span.Certifier}) carrying origin, snapshot, queue
    wait and the decision. With [metrics], each batch is recorded via
    {!Metrics.note_cert_batch}. With [certifier_standbys > 0] this also
    spawns the per-standby replication pushers, the standby failure
    detectors and, with [voter_lease_ms > 0], the voter lease; with no
    standbys none exists, as for the single-node certifier. *)

val subscribe :
  t -> replica:int ->
  (epoch:int -> (int option * int * Storage.Writeset.t) list -> unit) -> unit
(** Register a replica's refresh-delivery callback (invoked after a
    sampled network delay). Subscribing marks the replica live. The
    callback receives the releasing certifier's epoch and one batch of
    [(trace, version, writeset)] refresh transactions in ascending
    version order — a singleton list when [cert_batch = 1]. [trace] is
    the committing transaction's trace id when the run is traced. *)

val version : t -> int
(** Current [V_commit] (of the current primary). *)

val cpu : t -> Sim.Resource.t
(** The single-server certification CPU (for telemetry probes: its queue
    length is the certifier backlog). *)

val log_size : t -> int
(** Retained log entries ([version - log_base]) on the current primary. *)

val certify :
  ?trace:int * Obs.Span.t option ->
  ?applied:int ->
  ?deadline:float ->
  t -> origin:int -> snapshot:int -> ws:Storage.Writeset.t -> decision
(** Certify an update transaction. Blocks the calling process for the
    certifier service time. Must be called from within a process.
    [trace] is the caller's (trace id, parent span) for the service
    span; ignored when the certifier has no {!Obs.Trace.t}. [applied]
    piggybacks the origin replica's applied [V_local] (watermark
    accounting; costs no virtual time). [deadline] (virtual time,
    default none) is the request's drop-dead point: past it the request
    is answered [Expired] instead of being certified — checked on
    arrival and again when a batch leader drains it, never after a
    decision. *)

val ack : t -> replica:int -> version:int -> unit
(** A replica committed (applied) the given version: advances the
    replica's applied watermark, and under the eager configuration
    counts towards global commit. Watermarks are cumulative: reporting
    version [v] also acknowledges every pending eager wait [<= v] held
    by that replica, so a later report can stand in for a lost ack. *)

val heartbeat : t -> replica:int -> applied:int -> held:int -> unit
(** Liveness + watermark report carried by the replica heartbeat: feeds
    the same cumulative watermark accounting as {!ack}, and records the
    replica's {!Replica.held} version for {!repair_tick}. *)

val index_size : t -> int
(** Distinct (table, key) entries in the certification index. *)

val intern : t -> Storage.Intern.t
(** The conflict-key intern table the certification index is keyed by.
    Writesets built with it ({!Storage.Writeset.of_entries} [?intern])
    certify on the cached-id fast path. *)

(** {2 Applied watermarks and log truncation} *)

val watermark : t -> replica:int -> int
(** Highest version the replica has reported applied (0 before any
    report). *)

val min_watermark : t -> int
(** Minimum watermark over {e all} subscribed replicas, crashed ones
    included (their watermark freezes; [V_local] is durable, so this
    never overstates what a replica has applied). A permanent lower
    bound on every replica's applied version — what
    {!Load_balancer.prune_sessions} keys off. *)

val min_live_watermark : t -> int option
(** Minimum watermark over the {e live} replicas only; [None] when none
    is live. What the GC floor and the cluster's apply-lag governor
    ([Config.apply_lag_gap]) key off. *)

val gc : t -> unit
(** Evict watermark entries of replicas that are down and silent beyond
    [Config.evict_after_ms] (so a corpse cannot pin {!min_watermark} or
    — once marked down — the GC floor forever; see
    {!needs_state_transfer}), then truncate log and index below
    [min(live watermarks) - Config.watermark_slack]. No-op when no
    replica is live. *)

val needs_state_transfer : t -> replica:int -> bool
(** Whether the replica was evicted while down: its position in the
    refresh stream is forgotten and it must rejoin via state transfer
    (its log suffix may be gone). Cleared by {!mark_up}. *)

val evictions : t -> int
(** Watermark evictions performed (monotonic). *)

val writesets_from : t -> int -> (int * Storage.Writeset.t) list option
(** [(v, ws)] for all committed versions > the argument, ascending: the
    recovery replay stream. [None] if the requested suffix reaches below
    the pruned log horizon — the recovering replica then needs a state
    transfer instead. *)

val log_base : t -> int
(** Highest pruned version; the log covers (log_base, version]. *)

val prune : t -> keep_after:int -> unit
(** Discard log entries [<= keep_after], on every group member (bounded
    memory; the cluster prunes behind the slowest replica). The horizon
    is additionally clamped to the slowest non-crashed member's log head
    so a lagging standby can always catch up from the retained log.
    Transactions whose snapshot falls below the horizon are
    conservatively aborted at certification. *)

val mark_down : t -> replica:int -> unit
(** Remove a replica from the live set; pending eager transactions stop
    waiting for it, and it receives no further refresh writesets. *)

val mark_up : ?applied:int -> t -> replica:int -> unit
(** Return a replica to the live set. [applied] reports its recovered
    [V_local] (after catch-up or state transfer), re-seeding its
    watermark — an evicted replica re-enters the table at that version
    (not 0), so the GC floor resumes immediately. *)

val is_marked_live : t -> replica:int -> bool

val repair_tick : t -> unit
(** One pass of the refresh-repair loop: for every live subscriber whose
    held version lags the previous tick's log head {e and} did not move
    since, re-send (up to a cap) the log suffix past it as a refresh
    batch. A fault-free run repairs nothing. Receivers dedup by version, so
    over-delivery is harmless; delivery still traverses the (lossy)
    network. Repair streams originate from the current primary's
    endpoint and carry the ruling epoch. *)

val retransmits : t -> int
(** Repair re-sends performed (monotonic). *)

val decisions : t -> int * int
(** (commits, aborts) decided since creation. *)

(** {2 Certifier replication and promotion (state-machine approach, §IV)}

    With [certifier_standbys > 0] every commit decision is replicated
    over the network to the standby logs before the originating replica
    learns it, so a crash loses no released decision and promotion
    recovers immediately. Promotion is automatic only: the standby
    failure detectors elect a successor. A crashed primary of a group
    with no standbys stays down until {!revive_node}. While no primary
    is available, new certification requests queue in arrival order and
    resume after promotion or revival; read-only transactions are
    unaffected. *)

val crash : t -> unit
(** Fail-stop the current primary. Raises [Invalid_argument] when no
    standby is configured. *)

val is_crashed : t -> bool
(** Whether the member currently holding the primary role is crashed
    (i.e. the group has no acting primary). *)

val promotions : t -> int
(** Promotions performed: each is an election won by a suspecting
    standby. *)

val fenced : t -> int
(** Stale-epoch messages and decisions rejected by an epoch fence. *)

val elections : t -> int
(** Vote rounds started by suspecting standbys (not all of them won —
    compare {!promotions}). *)

val vote_denials : t -> int
(** Votes refused by a voter: candidate's log behind the voter's, stale
    target epoch, already voted for another candidate this epoch, or
    the voter is a learner. *)

val lease_expiries : t -> int
(** Voters demoted to learner by the liveness lease
    ([Config.voter_lease_ms]) after their acks went silent with
    decisions outstanding. Re-admission (catching back up to the log
    head) is not counted separately. *)

(** {2 Overload protection (docs/PROTOCOL.md, "Overload & admission
    control")} *)

val shed : t -> int
(** Requests refused [Overloaded] by the bounded backlog (monotonic;
    0 unless [Config.cert_queue_bound > 0]). *)

val expired : t -> int
(** Requests answered [Expired] because their deadline passed
    (monotonic; 0 unless callers pass [?deadline]). *)

val backlog : t -> int
(** Current pending-request queue length (telemetry probe). *)

(** {2 Group introspection (telemetry, chaos checkers)} *)

val group_size : t -> int
(** Members in the certifier group ([certifier_standbys + 1]). *)

val primary_index : t -> int
(** Member index currently holding the primary role. *)

val primary_net : t -> int
(** Network endpoint id of the current primary — the [src] of decisions
    and refresh batches, the [dst] of certification requests. *)

val current_epoch : t -> int

val epoch_base : t -> int
(** Log head of the current primary at its promotion: decisions beyond
    it from earlier epochs are fenced; decisions at or below it
    survived into the ruling history. *)

val node_version : t -> int -> int
(** Log head of member [k]. *)

val node_epoch : t -> int -> int

val node_acked : t -> int -> int
(** Highest log position member [k] has acknowledged to a primary. *)

val node_log : t -> int -> (int * Storage.Writeset.t) list
(** Member [k]'s retained log, ascending [(version, writeset)] — the
    chaos harness compares these across members for decision
    divergence, and the certification tests scan the primary's as the
    first-committer-wins oracle. *)

val standby_lag : t -> int
(** Versions the slowest non-crashed standby's acknowledged position
    trails the primary's log head; 0 with no standbys. *)

val revive_node : t -> int -> unit
(** Bring a crashed member back. A revived primary (no promotion
    happened meanwhile) resumes the queue; a revived ex-primary or
    standby rejoins as a learner and is reconciled and caught up by
    replication before it votes or becomes promotable again. *)

val set_faults : t -> Sim.Faults.t -> unit
(** Attach the cluster's fault plan: the certifier consults
    {!Sim.Faults.slowdown} (keyed by the current primary's endpoint) on
    every service time, modelling gray failure of the certifier host. *)
