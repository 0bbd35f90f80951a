(** Discrete-event simulation core: a virtual clock and an event queue.

    Time is a [float] in {e milliseconds} of virtual time. Events
    scheduled for the same instant fire in scheduling order, making runs
    deterministic. An event due at the current instant waits in a FIFO
    ring and a later one in a binary heap; a heap event that falls due
    was queued before any ring event, so it runs first and the order is
    the same as one queue's.

    A NaN time is neither before nor after the clock, so every entry
    point rejects it with [Invalid_argument]: a NaN delay or time, a NaN
    [run ~until], and a NaN {!Process.sleep}. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in ms. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays
    are clamped to 0. Raises [Invalid_argument] if the time is NaN. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at [time] (clamped to [now t]).
    Raises [Invalid_argument] if [time] is NaN. *)

val pending : t -> int
(** Number of queued events, in both the ring and the heap. *)

val executed : t -> int
(** Total events executed since creation (monotonic) — the denominator
    of the bench harness's simulated-events-per-wall-second metric. *)

val run : ?until:float -> t -> unit
(** Execute events in time order until the queue is empty, or until
    virtual time would exceed [until]. On return with [until], [now t]
    equals [until]. Raises [Invalid_argument] if [until < now t] (the
    clock never moves backwards) or if [until] is NaN. *)

val step : t -> bool
(** Execute the single next event; [false] if the queue was empty. *)

(** {2 Parked processes}

    The mechanism beneath {!Process} and the blocking primitives
    ({!Ivar}, {!Condition}, {!Resource}); model code uses those instead.
    A parked process is its bare continuation, queued either in the
    event queue (a sleep) or in a primitive's {!waiters} (a wait). A
    process states where it parks with {!request_sleep} or
    {!request_wait} just before it suspends; its handler then passes the
    continuation to {!park}. *)

type waiters = (unit, unit) Effect.Deep.continuation Queue.t
(** Processes parked on a primitive, oldest first. *)

val request_sleep : t -> float -> unit
(** The next {!park} resumes its process after this virtual delay
    (negative delays are clamped to 0). Raises [Invalid_argument] on a
    NaN delay, in the sleeping process. *)

val request_wait : t -> waiters -> unit
(** The next {!park} appends its process to these waiters instead. *)

val park : t -> (unit, unit) Effect.Deep.continuation -> unit
(** Carry out the pending request. A wait request is consumed: the
    engine keeps no reference to the waiters afterwards, and the
    following park is a sleep again. *)

val wake : t -> (unit, unit) Effect.Deep.continuation -> unit
(** Resume a parked process at the current instant, after the events
    already queued for it. *)
