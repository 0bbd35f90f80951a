(** TPC-W replica-count sweeps shared by Figures 5, 6 and 7.

    Scaled load ("replication for higher throughput"): clients = k x
    replicas with k = 100 / 80 / 50 for browsing / shopping / ordering.
    Fixed load ("replication for lower response time"): clients = k
    regardless of replica count. *)

type point = {
  mix : Workload.Tpcw.mix;
  mode : Core.Consistency.mode;
  replicas : int;
  summary : Runner.summary;
}

val clients_per_replica : Workload.Tpcw.mix -> int

val scaled :
  ?config:Core.Config.t ->
  ?params:Workload.Tpcw.params ->
  ?mixes:Workload.Tpcw.mix list ->
  ?replica_counts:int list ->
  ?warmup_ms:float ->
  ?measure_ms:float ->
  unit ->
  point list

val fixed :
  ?config:Core.Config.t ->
  ?params:Workload.Tpcw.params ->
  ?mixes:Workload.Tpcw.mix list ->
  ?replica_counts:int list ->
  ?warmup_ms:float ->
  ?measure_ms:float ->
  unit ->
  point list
