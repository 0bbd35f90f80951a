(** Figures 5 and 6: TPC-W under scaled load ("replication for higher
    throughput"), replicas 1–8. Figure 5 is a throughput and a
    response-time panel per mix (browsing / shopping / ordering);
    Figure 6 is the synchronization delay of the shopping and ordering
    mixes: the start delay for the lazy configurations and the global
    commit delay for the eager one. *)

val sweep :
  quick:bool -> seed:int -> scaled:bool -> Workload.Tpcw.mix list -> Runner.point list
(** Every mode at 1–8 replicas (1, 2, 4 and 8 when [quick]) per mix,
    with [Config.tpcw] and 5 s + 25 s windows (3 s + 10 s when [quick]).
    Each mix has a fixed client count k = 100 / 80 / 50 for browsing /
    shopping / ordering; [scaled] runs k x replicas clients instead. *)

val mix_of : Runner.point -> Workload.Tpcw.mix
(** The mix of a TPC-W point.
    @raise Invalid_argument on another workload. *)

val panel :
  ?y_label:string ->
  title:string ->
  metric:(Runner.summary -> float) ->
  Workload.Tpcw.mix ->
  (Runner.point * Runner.summary) list ->
  string
(** One replicas x mode table of [metric] over a mix's points, under
    [title]; with [y_label], also its chart against replicas. *)

val panels :
  Workload.Tpcw.mix list ->
  (Workload.Tpcw.mix -> string list) ->
  (Runner.point * Runner.summary) list ->
  string
(** The panels of each listed mix that has points, in list order. *)

val points : quick:bool -> seed:int -> Runner.point list
(** The scaled-load sweep over all three mixes. *)

val render : (Runner.point * Runner.summary) list -> string
(** Figure 5's six panels, then Figure 6's two. *)
