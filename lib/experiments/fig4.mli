(** Figure 4: micro-benchmark latency breakdown by transaction stage,
    for the 25% and 100% update mixes (8 replicas, 80 clients).

    Stages follow §V.A: version / queries / certify / sync / commit /
    global. Reported per configuration as the mean over all committed
    transactions (read-only transactions contribute zeros to the stages
    they lack, matching the paper's stacked bars); the global stage is
    the mean over update transactions, the only ones that have it. *)

val points : quick:bool -> seed:int -> Runner.point list
(** Every mode at 25% and 100% update types. *)

val render : (Runner.point * Runner.summary) list -> string
