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

val push_after : 'a t -> float -> float -> 'a -> unit
(** [push_after q base delay x] is [push q (base +. delay) x], with the
    sum formed inside: a caller across an opaque module boundary would
    box it to pass it to {!push}. *)

val min_prio : 'a t -> float
(** Priority of the minimum element. Undefined on an empty queue (may
    raise or return garbage) — guard with {!is_empty}. Called across an
    opaque module boundary it returns a freshly boxed float. *)

val min_le : 'a t -> float -> bool
(** [min_le q bound]: is the queue non-empty with minimum priority
    [<= bound]? Allocation-free when [bound] is already boxed, as a record
    field or an argument is, which makes it the test for a hot loop. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum-priority payload. Raises
    [Invalid_argument] on an empty queue. Allocation-free; read
    {!min_prio} first when the priority is needed. *)
