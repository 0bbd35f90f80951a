(** Lightweight simulation processes built on OCaml effect handlers.

    A process is ordinary sequential code that may block on virtual time
    ({!sleep}) or on synchronization primitives ({!Ivar}, {!Condition},
    {!Resource}), all implemented on top of {!sleep} and {!wait}.
    Blocking suspends only the calling process; the simulation engine
    keeps running other events. *)

val spawn : Engine.t -> (unit -> unit) -> unit
(** [spawn engine body] schedules [body] to start at the current virtual
    time. An exception escaping [body] aborts the whole simulation run
    (it propagates out of {!Engine.run}). *)

val sleep : Engine.t -> float -> unit
(** Block the calling process for the given virtual duration (ms). *)

val wait : Engine.t -> Engine.waiters -> unit
(** [wait engine waiters] parks the calling process at the back of
    [waiters]; it continues once another event passes it to
    {!Engine.wake}. Must be called from within a process. *)

val yield : Engine.t -> unit
(** Re-schedule the calling process at the current time, letting other
    events at this instant run first. *)
