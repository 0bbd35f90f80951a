(** Shared experiment driver: build a cluster, attach closed-loop
    clients, run warm-up + measurement, and summarize. *)

val map_jobs : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_jobs ~jobs f items] is [List.map f items] computed by [jobs]
    domains pulling items off a shared queue; results keep their item's
    position. Each call to [f] must be self-contained (simulations are:
    engine, RNG, and cluster all live inside the run) — [f] runs off the
    main domain when [jobs > 1]. [jobs <= 1] (the default) is exactly
    [List.map f items] on the calling domain. *)

type summary = {
  mode : Core.Consistency.mode;
  replicas : int;
  clients : int;
  tps : float;
  response_ms : float;
  stage_ms : float array;  (** mean per {!Core.Metrics.stage}, all txns *)
  stage_update_ms : float array;  (** mean per stage, update txns *)
  sync_delay_ms : float;  (** version (all) + global (updates) *)
  abort_rate : float;
  committed : int;
}

val run_micro :
  ?config:Core.Config.t ->
  mode:Core.Consistency.mode ->
  params:Workload.Microbench.params ->
  clients:int ->
  warmup_ms:float ->
  measure_ms:float ->
  unit ->
  summary

val run_tpcw :
  ?config:Core.Config.t ->
  mode:Core.Consistency.mode ->
  params:Workload.Tpcw.params ->
  mix:Workload.Tpcw.mix ->
  clients:int ->
  warmup_ms:float ->
  measure_ms:float ->
  unit ->
  summary

(** {2 Multi-run statistics}

    The paper reports the average of 10 independent runs with deviation
    below 5%; {!replicate} provides the same methodology: run an
    experiment at [runs] different seeds and aggregate. *)

type aggregate = {
  runs : int;
  mean : summary;  (** throughput/response/stages averaged across runs *)
  tps_stddev : float;
  response_stddev_ms : float;
  tps_rel_dev : float;  (** stddev / mean, the paper's "deviation" *)
}

val replicate : runs:int -> base_seed:int -> (seed:int -> summary) -> aggregate
(** [replicate ~runs ~base_seed f] calls [f ~seed] with seeds
    [base_seed, base_seed+1, ...]. Requires [runs >= 1]. *)
