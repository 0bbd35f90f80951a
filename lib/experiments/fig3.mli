(** Figure 3: micro-benchmark throughput vs. update-transaction ratio.

    8 replicas, 80 closed-loop clients, 40 tables x 10,000 rows; the
    number of update transaction types sweeps 0..40. One curve per
    consistency configuration. *)

val points : quick:bool -> seed:int -> Runner.point list
(** Every mode at 0, 5, ..., 40 update types (0, 10, 20 and 40 when
    [quick]). *)

val render : (Runner.point * Runner.summary) list -> string
