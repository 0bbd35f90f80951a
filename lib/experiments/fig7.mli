(** Figure 7: TPC-W response time under fixed load (shopping: 80 clients,
    ordering: 50 clients), replicas 1–8. Lazy configurations' response
    falls as replicas are added; the eager configuration's rises. *)

val points : quick:bool -> seed:int -> Runner.point list

val render : (Runner.point * Runner.summary) list -> string
