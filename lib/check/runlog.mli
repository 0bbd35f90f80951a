(** Execution-log consistency checks for the replicated system.

    The cluster records one {!record} per committed transaction. Because
    the prototype is a multiversion (GSI) system, consistency properties
    reduce to constraints between {e real-time} commit-acknowledgement
    order and {e snapshot versions}:

    - strong consistency: if Ti's commit was acknowledged to its client
      before Tj began, then Tj's snapshot includes Ti's commit version;
    - fine-grained strong consistency: the same, but only when Ti wrote
      at least one table in Tj's table-set (Theorem 2: the table-set is a
      superset of the data-set, so this still guarantees that Tj observes
      the latest committed state of all the data it accesses);
    - session consistency: the strong constraint restricted to pairs in
      the same session;
    - first-committer-wins (GSI): two committed update transactions with
      intersecting writesets must not have overlapping
      (snapshot, commit] version windows.

    Records additionally carry the {!tier} (read class) they were served
    under. The mode-level guarantees above constrain [Strong]-class
    records only — a read that explicitly requested a weaker class is
    judged by its own tier checker ({!tier_bounded_staleness},
    {!tier_causal_ryw}, {!tier_monotone_reads}) instead.

    {b Cost.} n is the number of records. The precedence checkers
    (strong, fine, session, bounded staleness, LB floor and the tier
    contracts) make one sweep in begin order that keeps a running
    maximum version per group (one group, each written table, or each
    session) and marks a transaction a {e suspect} only if a group it
    reads holds a version above its snapshot plus the checker's slack.
    Only suspects are paired with every record: O(n log n) on a clean
    log, O(n·s) with s suspects. {!first_committer_wins} pairs only
    updates that share a written key and were committed within each
    other's window: O(n log n) plus the candidate pairs. The epoch,
    election and digest checks are linear after a sort. *)

(** Read class a record was served under — a decoupled mirror of
    [Core.Consistency.read_tier] (this library judges logs; it does not
    depend on the protocol implementation). *)
type tier =
  | Strong
  | Bounded of {
      versions : int option;
      ms : float option;
    }
  | Causal
  | Eventual

val tier_string : tier -> string

type record = {
  tid : int;
  session : int;
  begin_time : float;  (** when the client issued the transaction *)
  ack_time : float;  (** when the client learned the commit outcome *)
  snapshot_version : int;  (** database version the txn read from *)
  commit_version : int option;  (** [None] for read-only transactions *)
  epoch : int;
      (** certifier epoch that released the decision (0 when no certifier
          failover ever happened) *)
  lb_epoch : int;
      (** load-balancer routing epoch that served the request (0 until an
          LB takeover ever happened) *)
  tier : tier;  (** read class served; [Strong] for every update *)
  table_set : string list;  (** declared tables the txn may access *)
  tables_written : string list;  (** tables in the writeset *)
  write_keys : (string * string) list;  (** (table, rendered key) written *)
  trace : int option;
      (** trace id of the transaction when the run was traced, so checker
          violations can be cross-referenced with exported trace spans *)
}

type violation = {
  first : record;
  second : record;
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

val strong_consistency : record list -> violation list
(** Empty iff the log is strongly consistent. *)

val fine_strong_consistency : record list -> violation list
(** Empty iff the log satisfies table-set-based strong consistency. *)

val session_consistency : record list -> violation list

val first_committer_wins : record list -> violation list

val bounded_staleness : k:int -> record list -> violation list
(** Relaxed-currency check: if Ti's commit was acknowledged before Tj
    began, Tj's snapshot trails Ti's commit version by at most [k].
    [bounded_staleness ~k:0] coincides with {!strong_consistency}. *)

val monotone_session_snapshots : record list -> violation list
(** Within a session, a [Strong] transaction never reads an older
    snapshot than any transaction of the session acknowledged before it
    began, whatever tier that one ran under — the "never goes back in
    time" session guarantee. Every such pair is checked, not only
    neighbours in begin order. *)

(** {2 Read-tier contracts (docs/CONSISTENCY.md)}

    Each checker constrains only records of its own tier; they are all
    trivially empty on a log with no tiered reads, so they can ride in
    every checker battery. *)

val tier_bounded_staleness : record list -> violation list
(** Every [Bounded]-tier read respected the bound {e it declared}: with
    [versions = Some k], its snapshot trails any previously-acked commit
    by at most [k] versions; with [ms = Some m], it includes every
    commit acked at least [m] virtual ms before the read began. *)

val tier_causal_ryw : record list -> violation list
(** Read-your-writes: a [Causal]-tier read observes every commit its own
    session had already been acknowledged for. *)

val tier_monotone_reads : record list -> violation list
(** Monotonic reads: a [Causal]-tier read never observes an older
    snapshot than any earlier acknowledged transaction of its session
    (whatever tier that one ran under). *)

val epoch_fencing : record list -> violation list
(** Commit versions are partitioned by certifier epoch: for any two
    epochs e < e', every version committed under e is strictly below
    every version committed under e'. A violation is split brain — a
    deposed primary released a decision past the promotion point of the
    epoch that superseded it. Trivially empty when every record carries
    epoch 0. *)

val election_safety : record list -> violation list
(** The certification log is a single history: no two committed
    transactions occupy the same commit version. Two records sharing a
    version is a divergent log entry — two primaries each released a
    decision for that slot, the failure a non-quorum-intersecting
    election permits. *)

val lb_floor_preservation : record list -> violation list
(** LB takeovers preserve handed-out guarantees: if Ti's commit was
    acked and a later [Causal] read of the same session was served under
    a {e newer} LB epoch, that read still observes Ti's commit. Causal
    is the one tier whose read-your-writes contract holds in every mode;
    [Strong] reads across a takeover are covered by the per-mode
    checkers, whose precedence pairs do not exempt cross-epoch pairs.
    Trivially empty when every record carries LB epoch 0. *)

(** Flat in-memory store of records. The cluster appends every committed
    transaction's record here during a measurement window; records are
    flattened into one growing byte buffer ({!Storage.Codec.Flat}) at
    append time, so a soak's worth of log costs the GC one large object
    instead of hundreds of thousands of small ones. Ints are zigzag
    varints and floats their 8 bytes. Each table name (in [table_set],
    [tables_written] and [write_keys]) is written as its id in a per-sink
    dictionary, which the schema bounds and {!clear} keeps; rendered
    keys are written inline. [records] decodes them back, in append
    order: every table name is the dictionary's own string, and every
    single-table list is one list shared by all records naming that
    table, so a decoded record owns little beyond its rendered keys. *)
module Sink : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] is the initial buffer size in bytes (doubles on demand). *)

  val clear : t -> unit
  (** Drop every record; the table dictionary stays. *)

  val add : t -> record -> unit

  val records : t -> record list
  (** Decode all appended records, in append order. *)
end

val digest : record list -> string
(** Hex digest of the canonical rendering of the log — tid, session,
    begin/ack times (full float precision), snapshot and commit
    versions, table sets, written keys, and (when weaker than [Strong])
    the read tier; [trace] ids are excluded so the digest is invariant
    to whether tracing was on. Two runs with the same seed and fault
    plan must produce equal digests (the chaos harness's
    bit-reproducibility check). *)
