(** Client transaction requests.

    A request is an instance of a {e prepared transaction}: a profile
    identifier, the statically-known table-set (used by the fine-grained
    configuration), and the parameter-bound statements. *)

type request = {
  profile : string;  (** prepared-transaction identifier *)
  table_set : string list;  (** tables the transaction may access *)
  statements : Storage.Query.t list;
  tier : Consistency.read_tier;
      (** requested read class; [Strong] (the default) follows the
          cluster's write {!Consistency.mode}. Non-[Strong] tiers are
          only admissible for read-only requests — see
          {!tier_violation}. *)
}

type abort_reason =
  | Certification_conflict  (** certifier found a write-write conflict *)
  | Early_certification  (** conflict with a pending refresh writeset *)
  | Replica_failure  (** the executing replica crashed mid-flight *)
  | Timeout  (** a hardened message exchange exhausted its retransmission
          budget, or the replica never caught up to the start version
          within [Config.start_wait_timeout_ms] (lossy-network mode) *)
  | Overloaded of { retry_after_ms : float }
      (** shed by admission control before doing any work — the LB
          token bucket / concurrency limit, the apply-lag governor, or
          the bounded certifier backlog rejected the request
          (docs/PROTOCOL.md, "Overload & admission control").
          [retry_after_ms] is the server's hint for how long the client
          should wait before re-offering the work. *)
  | Statement_error of string  (** e.g. duplicate-key insert *)

type outcome =
  | Committed of {
      commit_version : int option;  (** [None] for read-only transactions *)
      snapshot : int;
      stages : float array;  (** indexed by {!Metrics.stage} *)
      response_ms : float;
    }
  | Aborted of {
      reason : abort_reason;
      response_ms : float;
    }

val make :
  profile:string ->
  ?table_set:string list ->
  ?tier:Consistency.read_tier ->
  Storage.Query.t list ->
  request
(** Build a request; the table-set defaults to the tables referenced by
    the statements (always a superset of the accessed data under our
    statement language), and the read tier defaults to
    {!Consistency.Strong}. *)

val updates_possible : request -> bool
(** Whether any statement may write. *)

val tier_violation : request -> string option
(** Read-class admission check, enforced at the replica boundary: a
    non-[Strong] tier combined with statements that may write is
    rejected (the replica aborts with [Statement_error] before
    executing anything). Returns the rejection message, or [None] if
    the request is admissible. *)

val pp_abort_reason : Format.formatter -> abort_reason -> unit

val abort_slug : abort_reason -> string
(** Short stable identifier for metrics breakdowns ("timeout",
    "certification", ...); collapses [Statement_error] payloads. *)

val abort_is_transient : abort_reason -> bool
(** Failure-class aborts ([Replica_failure], [Timeout], [Overloaded])
    are retried without consuming the client's [max_retries] budget —
    the conflict budget is reserved for certification losses. Transient
    retries are still capped by the per-client retry {e budget}
    under [Config.overload_protection], and an [Overloaded]
    retry waits out the shed's [retry_after_ms] hint first. *)
