(** Broadcast condition variable with predicate-based waiting.

    {!await} re-checks its predicate each time the condition is
    signalled, so state transitions guarded by {!broadcast} never lose
    wake-ups. Used by replica proxies to wait for "local version >= v". *)

type t

val create : Engine.t -> t

val await : t -> (unit -> bool) -> unit
(** [await c pred] returns immediately if [pred ()]; otherwise blocks the
    calling process and re-evaluates [pred] after every {!broadcast},
    returning once it holds. *)

val broadcast : t -> unit
(** Wake all waiting processes so they re-check their predicates. *)
