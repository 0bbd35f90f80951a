(** The YCSB serving-benchmark extension: every mode under mixes A–F on
    4 replicas with 40 closed-loop clients over 10k zipfian records. *)

val points : quick:bool -> seed:int -> Runner.point list
(** 1 s + 4 s windows; [quick] changes nothing, the whole run takes
    seconds. *)

val render : (Runner.point * Runner.summary) list -> string
