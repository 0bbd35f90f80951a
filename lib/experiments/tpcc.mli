(** The TPC-C extension: every mode on 4 replicas with 40 paced
    terminals over 8 warehouses, plus the static SI analysis of the
    TPC-C transaction profiles. *)

val points : quick:bool -> seed:int -> Runner.point list
(** 1 s + 6 s windows; [quick] changes nothing, the whole run takes
    seconds. *)

val render : (Runner.point * Runner.summary) list -> string
