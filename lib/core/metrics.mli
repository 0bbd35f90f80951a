(** Experiment metrics: throughput and the paper's six-stage latency
    breakdown (§V.A).

    Read-only transactions have three stages (version, queries, commit);
    update transactions add certify, sync and — under the eager
    configuration — global. Recording only happens after
    {!reset_window}, so warm-up intervals are excluded. *)

type stage = Version | Queries | Certify | Sync | Commit | Global

val stage_index : stage -> int
val stage_count : int
val stage_name : stage -> string
val stages : stage list

type t

(** One finished transaction, as handed to the outcome observer: both
    commits and aborts flow through, with the stage-clock durations
    attached ([out_read_only] is [false] for aborts). *)
type outcome = {
  out_committed : bool;
  out_read_only : bool;
  out_response_ms : float;
  out_stages : float array;
  out_tier : string;
      (** the read tier served ({!Consistency.tier_slug}); "strong" for
          updates and aborts *)
  out_staleness : int;
      (** versions the served snapshot trailed [V_system] at response
          time; meaningful for read-only commits, 0 otherwise *)
}

val create : Sim.Engine.t -> t

val set_observer : t -> (outcome -> unit) option -> unit
(** Install (or clear) the per-outcome observer. [None] — the default —
    costs nothing on the transaction path; the observatory installs a
    function that feeds its windowed counters and histograms. *)

val reset_window : t -> unit
(** Start (or restart) the measurement window; discards prior samples
    and rebases every {!add_total} source. *)

(** {2 Window totals}

    Counts whose source is a monotonic counter elsewhere — the
    [Total] entries of {!Cluster.probes}, which {!Cluster.create}
    registers here. A window count is the source's reading minus its
    reading at window start; nothing is copied or mirrored. *)

val add_total : t -> string -> (unit -> int) -> unit
(** [add_total t name read] registers a monotonic source under its
    catalog name; its window count starts at 0 now. *)

val total : t -> string -> int
(** The named total's count this window; 0 for an unregistered name
    (e.g. [fault.*] without a fault plan). *)

val totals : t -> (string * int) list
(** Every registered total's count this window, in registration order. *)

val record_commit :
  ?tier:string ->
  ?staleness:int ->
  t ->
  read_only:bool ->
  stages:float array ->
  response_ms:float ->
  unit
(** [tier] (default ["strong"]) and [staleness] feed the per-read-tier
    breakdown for read-only commits; both are ignored for updates. *)

val record_abort : ?slug:string -> t -> unit
(** [slug] (a {!Transaction.abort_slug}) feeds the per-reason abort
    breakdown. *)

val record_retry_exhausted : t -> unit

(** {2 Overload protection (docs/PROTOCOL.md, "Overload & admission
    control")}

    All four counts stay 0 unless [Config.overload_protection] is on. The
    first three are window totals of the cluster's [txn.*] sources. *)

val note_queue_depth : t -> int -> unit
(** Report an observed queue depth (certifier backlog, admitted
    in-flight); the window keeps the maximum. *)

val shed : t -> int
(** Requests refused with {!Transaction.Overloaded} (LB admission,
    apply-lag governor, or the bounded certifier backlog). *)

val retry_budget_exhausted : t -> int
(** Transactions a client gave up on an empty retry budget
    (under [Config.overload_protection]). *)

val deadline_expired : t -> int
(** Transactions dropped past their [Cluster.deadline_ms] deadline. *)

val max_queue_depth : t -> int
(** Largest queue depth reported this window; 0 when never reported. *)

(** {2 Pipeline batching}

    Group-certification and parallel-apply accounting. A {e cert batch}
    is one drain of the certifier's request queue (size ≥ 1); an
    {e apply group} is one run of consecutive refresh writesets a
    replica's sequencer installed together, partitioned into conflict
    lanes. With [cert_batch = 1] and [apply_parallelism = 1] every batch
    and group has size 1. *)

val note_cert_batch : t -> size:int -> unit

val note_apply_group : t -> size:int -> unit

val cert_batches : t -> int

val mean_cert_batch : t -> float
(** Mean certification requests decided per batch; 0 when idle. *)

val apply_groups : t -> int

val mean_apply_group : t -> float
(** Mean writesets installed per apply group; 0 when idle. *)

(** {2 The per-transaction stage clock}

    One recorder per in-flight transaction drives both stage accounting
    and (when a {!Obs.Trace.t} is attached) per-stage trace spans — the
    aggregate breakdown and the trace are views of the same events.
    Stages are entered and exited strictly one at a time. *)

type txn

val txn_begin : ?obs:Obs.Trace.t -> ?sid:int -> name:string -> t -> txn
(** Start the clock (and, when tracing, the transaction's root span on
    the [Client sid] track). [name] labels the root span (the workload
    profile). *)

val txn_locate : txn -> replica:int -> unit
(** Route subsequent stage spans to the executing replica's track. Call
    after the load balancer picks the replica, before the first stage. *)

val stage_enter : ?at:float -> txn -> stage -> unit
(** Open a stage at the current virtual time, or retroactively at [at]. *)

val stage_exit : ?at:float -> txn -> stage -> unit
(** Close the open stage, accumulating its duration (and finishing its
    span). Raises [Invalid_argument] if [stage] is not the open one. *)

val txn_trace_id : txn -> int option
(** The allocated trace id; [None] when tracing is disabled. *)

val txn_root_span : txn -> Obs.Span.t option
(** The root span, to parent spans emitted by other components. *)

val txn_stages : txn -> float array
(** The per-stage durations accumulated so far (indexed by
    {!stage_index}); the array the outcome carries. *)

val txn_commit :
  ?args:(string * string) list ->
  ?tier:string ->
  ?staleness:int ->
  txn ->
  read_only:bool ->
  unit
(** Close any open stage, record the commit (stages + response time) and
    finish the root span with an [outcome] arg. [tier]/[staleness] as in
    {!record_commit}. *)

val txn_abort : ?slug:string -> txn -> reason:string -> unit
(** Close any open stage, record the abort and finish the root span.
    [reason] is the human-readable form (span arg); [slug] the stable
    identifier for the per-reason breakdown. *)

(** {2 Certifier promotion} *)

val note_promotion : t -> outage_ms:float -> unit
(** A certifier standby promoted itself; [outage_ms] is the span since
    the deposed primary was last known good — the commit-outage window
    the failover closed. (The promotion itself is counted by the
    [certifier.promotions] total.) *)

val outage_max_ms : t -> float
(** Largest outage window closed by a promotion; 0 when none. *)

val retransmits : t -> int
(** Retransmissions this window: the [net.retransmits] (stop-and-wait
    re-sends) plus [certifier.retransmits] (refresh repair) totals. *)

(** {2 Reading results} *)

val window_ms : t -> float
(** Elapsed virtual time since the window started. *)

val committed : t -> int

val aborted : t -> int

val retry_exhausted : t -> int

val throughput_tps : t -> float
(** Committed transactions per (virtual) second in the window. *)

val mean_response_ms : t -> float

val percentile_response_ms : t -> float -> float

val mean_stage_ms : t -> stage -> float
(** Mean over {e all} committed transactions (stages a class does not
    have count as 0, matching the paper's stacked-bar convention). *)

val mean_stage_update_ms : t -> stage -> float
(** Mean over update transactions only. *)

val sync_delay_ms : t -> float
(** The paper's "synchronization delay": mean Version stage for lazy
    configurations plus mean Global stage (only Eager has one). *)

val abort_rate : t -> float
(** Aborts / (commits + aborts); 0 when idle. *)

val aborts_by_reason : t -> (string * int) list
(** Abort counts keyed by {!Transaction.abort_slug}, most frequent
    first; only aborts recorded with a slug appear. *)

(** {2 Per-read-tier breakdown (docs/CONSISTENCY.md)}

    Read-only commits, keyed by {!Consistency.tier_slug} — strong reads
    land under ["strong"], so the four classes are directly comparable
    within one run. Empty until a read commits. *)

val tier_committed : t -> string -> int

val tier_mean_response_ms : t -> string -> float

val tier_percentile_response_ms : t -> string -> float -> float

val tier_mean_staleness : t -> string -> float
(** Mean versions the served snapshots trailed [V_system] at response. *)

val tier_max_staleness : t -> string -> float

val pp_summary : Format.formatter -> t -> unit
(** The transaction part of a run: throughput, aborts by reason,
    response time, the stage breakdown, read tiers, commit outages and
    the deepest queue. {!Cluster.pp_catalog} prints the rest. *)
