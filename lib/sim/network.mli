(** Point-to-point network latency model.

    Message delay = [base] + uniform jitter + size / bandwidth. The
    cluster in the paper is a single Gigabit Ethernet switch, so one
    shared latency model covers every pair of hosts.

    A {!Faults} plan may be attached with {!set_faults}; every message
    then passes through {!Faults.judge} and can be dropped, duplicated
    or delayed. Messages carry optional [src]/[dst] node ids so the plan
    can target individual links; untagged messages only see the plan's
    default spec. Without a plan (or with a plan whose every probability
    is zero) behaviour — including the RNG stream — is identical to the
    original exactly-once model.

    Accounting: [messages_sent]/[bytes_sent] count wire copies, i.e.
    offered load — a dropped message still counts (it was sent and then
    lost) and a duplicated message counts twice. [retransmits] counts
    re-sends performed by {!transfer}/{!transfer_bounded} after a lost
    attempt. *)

type t

val create :
  ?rto_ms:float ->
  Engine.t ->
  rng:Util.Rng.t ->
  base_ms:float ->
  jitter_ms:float ->
  bandwidth_mbps:float ->
  t
(** [rto_ms] (default 5.0) is the retransmission timeout used by
    {!transfer}/{!transfer_bounded} when a fault plan drops an attempt. *)

val set_faults : t -> Faults.t -> unit
(** Attach a fault plan; all subsequent traffic is subject to it. *)

val unspecified : int
(** The endpoint id an omitted [?src]/[?dst] defaults to: a sentinel
    that belongs to no fault-plan group, so untagged messages are never
    subject to link rules or partitions. *)

val send : ?src:int -> ?dst:int -> t -> size_bytes:int -> (unit -> unit) -> unit
(** Fire-and-forget delivery: run the callback after a sampled delay.
    Under a fault plan the message may be silently lost, delivered
    twice, or delayed — the caller gets no feedback. *)

val transfer : ?src:int -> ?dst:int -> t -> size_bytes:int -> unit
(** Block the calling process for one sampled message delay. Under a
    fault plan this models a {e persistent} stop-and-wait exchange: each
    lost attempt costs one retransmission timeout and the transfer
    retries until it gets through (it only completes delivered, however
    long the partition lasts). *)

val transfer_bounded :
  ?src:int ->
  ?dst:int ->
  t ->
  size_bytes:int ->
  max_tries:int ->
  (unit, [ `Timeout ]) result
(** Like {!transfer} but gives up after [max_tries] attempts, returning
    [Error `Timeout]. Use for request legs that have no side effect yet
    and can safely abort instead of waiting out a long partition. *)

val messages_sent : t -> int

val bytes_sent : t -> int

val link_messages : t -> src:int -> dst:int -> int
(** Wire copies recorded on the exact (src, dst) link — same offered-load
    semantics as {!messages_sent} (drops and duplicates count). Untagged
    endpoints are keyed as {!unspecified}. *)

val link_bytes : t -> src:int -> dst:int -> int
(** Bytes recorded on the exact (src, dst) link. *)

val retransmits : t -> int
