(** Mutable binary min-heap priority queue.

    Elements are ordered by a float priority supplied at insertion time;
    ties are broken by insertion order (FIFO among equal priorities),
    which the simulator relies on for deterministic replay. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty queue. *)

val length : 'a t -> int
(** Number of queued elements. *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q prio x] inserts [x] with priority [prio]. *)

val pop : 'a t -> (float * 'a) option
(** [pop q] removes and returns the minimum-priority element, or [None]
    if the queue is empty. Among equal priorities the element inserted
    first is returned first. *)

val min_prio : 'a t -> float
(** Priority of the minimum element. Undefined on an empty queue (may
    raise or return garbage) — guard with {!is_empty}. Allocation-free,
    unlike {!peek}. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum-priority payload. Raises
    [Invalid_argument] on an empty queue. Allocation-free, unlike
    {!pop}; read {!min_prio} first when the priority is needed. *)

val peek : 'a t -> (float * 'a) option
(** [peek q] is the minimum-priority element without removing it. *)
