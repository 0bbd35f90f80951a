(** The load balancer (§IV): client-facing router and version oracle.

    Routing picks the live replica with the fewest active transactions.
    Version accounting implements each consistency configuration's
    start-version rule:

    - [Coarse]: tag with [V_system], the version of the latest update
      transaction committed {e and acknowledged} through this balancer;
    - [Fine]: tag with the max table version [V_t] over the
      transaction's table-set (Table I of the paper);
    - [Session]: tag with the session's last acknowledged version;
    - [Eager]: tag 0 — replicas are already up to date when clients
      learn about commits.

    With {!Config.read_tiers} enabled the balancer additionally acts as
    a {e staleness router} for read-only requests carrying a
    non-[Strong] {!Consistency.read_tier}: it tracks every replica's
    last reported applied version ({!note_applied}, fed by response and
    heartbeat piggybacks) plus a bounded [V_system] history for
    ms-staleness floors, and {!route_read} picks a replica already at
    the request's floor — falling back to the most-caught-up one, where
    the floor is enforced by the replica's start wait, so a staleness
    contract is never violated, only served slower. *)

type t

(** Failure-detector verdict for a replica (see docs/FAULTS.md). The
    detector is passive state: it only changes when the cluster feeds it
    contacts ({!note_contact}) and runs {!sweep}; otherwise every
    replica stays [Alive] and routing is exactly the classic
    live-replica policy. *)
type status = Alive | Suspect | Dead

val create : ?rng:Util.Rng.t -> Config.t -> mode:Consistency.mode -> t
(** The RNG is used only by the [Random_replica] routing policy. *)

val mode : t -> Consistency.mode

(** {2 Routing} *)

val choose_replica : t -> sid:int -> int
(** Pick a live replica per the configured routing policy (the paper's
    system uses least-active; the session id only matters for the
    session-affinity policy), preferring detector-[Alive] replicas, then
    suspects, then detector-dead-but-manually-live ones. Raises
    [Failure] if none is live. *)

val note_dispatch : t -> replica:int -> unit

val note_complete : t -> replica:int -> unit

val active : t -> replica:int -> int

val set_live : t -> replica:int -> bool -> unit

val is_live : t -> replica:int -> bool

(** {2 Failure detector} *)

val note_contact : t -> replica:int -> now:float -> unit
(** Any message from the replica (heartbeat or transaction response):
    refreshes its last-contact time and clears Suspect/Dead back to
    [Alive] — contact always un-suspects. *)

val sweep : t -> now:float -> unit
(** Re-evaluate every replica against 80 ms (suspect) / 400 ms (dead)
    of silence, transitioning Alive → Suspect → Dead (never back — only
    {!note_contact} resurrects). *)

val sweep_interval_ms : float
(** How often the cluster runs {!sweep}: a quarter suspicion window. *)

val health : t -> replica:int -> status

val suspect_events : t -> int
(** Alive → Suspect transitions observed (monotonic). *)

val failover_events : t -> int
(** Transitions into [Dead] observed (monotonic). *)

(** {2 Version accounting} *)

val start_version : t -> sid:int -> table_set:string list -> int
(** The version the executing replica must reach before the transaction
    may start, per the balancer's consistency mode. *)

val note_commit_ack :
  ?epoch:int ->
  ?now:float ->
  t ->
  sid:int ->
  version:int ->
  tables_written:string list ->
  unit
(** Called when relaying a successful update-commit response to the
    client: updates [V_system], the written tables' [V_t], and the
    session version. [epoch] (default 0) is the certifier epoch that
    released the decision: a higher epoch is adopted, a stale one is
    counted ({!cert_fenced}) — but the version is applied either way,
    because a released decision belongs to the surviving history
    whatever epoch stamped it; refusing it would only weaken start
    versions. [now] (virtual time) timestamps the [V_system] advance in
    the staleness history when {!Config.read_tiers} is on; omitting it
    (or running with tiers off) records nothing. *)

val cert_fenced : t -> int
(** Commit acks relayed that carried a stale certifier epoch. *)

val note_snapshot_ack : t -> sid:int -> snapshot:int -> unit
(** Called when relaying a read-only commit in session mode: raises the
    session's version floor to the snapshot the client just observed, so
    its next transaction never reads an older one (monotone reads even
    when routed to a laggard replica). A no-op in the other modes — they
    either guarantee it structurally or don't promise it — unless
    {!Config.read_tiers} is on, where the floor is maintained in every
    mode because causal reads consult it. *)

val v_system : t -> int

val table_version : t -> string -> int

val session_version : t -> sid:int -> int

val prune_sessions : t -> applied_min:int -> unit
(** Drop session-version entries [<= applied_min], the cluster-wide
    minimum applied watermark ({!Certifier.min_watermark}). Safe because
    every replica has already applied those versions — the wait such an
    entry would impose is trivially satisfied, and a pruned session
    falls back to {!session_version}'s default of 0, which imposes the
    same (no) wait. Bounds [session_versions] growth under session-id
    churn: the table tracks only sessions that committed above the
    watermark, instead of every session ever seen. *)

val session_count : t -> int
(** Number of tracked session-version entries (test/telemetry hook for
    the {!prune_sessions} bound). *)

(** {2 Read-tier routing (docs/CONSISTENCY.md)} *)

val note_applied : t -> replica:int -> version:int -> unit
(** Record a replica's reported applied version (monotone). Fed by the
    cluster from transaction-response and heartbeat piggybacks, so the
    balancer's view is a lower bound on the replica's true progress —
    staleness-aware routing can only over-wait, never under-wait. *)

val tier_floor : t -> sid:int -> tier:Consistency.read_tier -> now:float -> int
(** The snapshot floor a tiered read must reach: 0 for [Eventual], the
    session's floor for [Causal], and [max] of the version-lag and
    ms-lag floors for [Bounded_staleness] (an ms cutoff older than the
    retained 5 s history window resolves conservatively to the newest
    pruned version). Raises [Invalid_argument] for
    [Strong] — strong reads take the mode's {!start_version}. *)

(** {2 LB state replication and takeover (docs/PROTOCOL.md, "Control
    plane")}

    The routing state worth surviving a takeover — [V_system], certifier
    epoch, table/session floors, applied watermarks, tier-history base —
    is snapshotted by the active LB and max-merged by the standby, so
    pushes tolerate loss, duplication and reordering. The cluster owns
    the processes; this module only moves state. *)

type state
(** One replication snapshot. *)

val capture : t -> state

val state_bytes : state -> int
(** Wire size of a snapshot (for the simulated network). *)

val absorb : t -> state -> unit
(** Max-merge a snapshot into this instance: versions and floors only
    ever go up, so stale or duplicated pushes are no-ops. *)

type role = {
  mutable crashed : bool;
  mutable self_active : bool;  (** this instance's own belief about its role *)
  mutable self_epoch : int;  (** highest routing epoch this instance knows *)
  mutable heard : float;  (** when it last received a state push *)
}
(** An instance's place in the LB pair. The cluster's push and takeover
    processes read and write it; a fresh instance believes itself
    active at epoch 0. *)

val role : t -> role

val note_takeover : t -> floor:int -> unit
(** Install the takeover floor on a freshly promoted active LB:
    [V_system], the tier-history base and the session floor minimum
    (below which {!session_version} never resolves) are raised to
    [floor] — the max of the replicated [V_system] and the live
    replicas' probed commit points — so every guarantee the deposed LB
    had handed out (session floors included, which may lag replication
    by one push period) is covered conservatively. *)

(** {2 Overload admission (docs/PROTOCOL.md, "Overload & admission
    control")}

    One gate, armed by [Config.overload_protection]: the
    {!admission_limit} concurrency cap. Priority shedding: a {e strong}
    (potentially-writing) request is capped at 7/8 of the limit, so
    under pressure strong writes shed first and weak-tier reads degrade
    last. The cluster only calls {!admit}/{!release} when the switch is
    on. *)

val admission_limit : int
(** Transactions admitted and not yet answered at which every new
    arrival is shed (48). *)

val shed_retry_after_ms : float
(** The retry-after hint every [Transaction.Overloaded] abort carries
    (5 ms), from the admission cap, the apply-lag governor and the
    certifier's bounded backlog alike. *)

val admit : t -> strong:bool -> bool
(** Try to admit one transaction. [true] admits it (the caller must
    eventually {!release}); [false] means shed it, with the
    {!shed_retry_after_ms} hint. *)

val release : t -> unit
(** The admitted transaction was answered (committed {e or} aborted). *)

val admitted : t -> int
(** Transactions currently admitted and not yet answered. *)

val route_read : t -> sid:int -> tier:Consistency.read_tier -> now:float -> int * int
(** Route a read-only request of the given tier: returns
    [(replica, floor)]. Prefers live+healthy replicas whose known
    applied watermark already satisfies {!tier_floor} (picked by the
    configured routing policy among the qualifying set); when none
    qualifies, deterministically picks the most-caught-up replica
    (health-tiered, ties to the lowest id) — the returned floor must
    still be enforced by the replica's start wait, so the contract
    holds either way. [Eventual] reads carry no floor and take the
    plain policy pick — the routing policy already embodies "fastest
    replica" (least outstanding work). Raises [Failure] if no replica
    is live. *)
