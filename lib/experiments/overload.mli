(** Open-loop offered-rate sweeps (docs/PROTOCOL.md, "Overload &
    admission control").

    Each point drives the cluster with a rate-paced ({e open-loop})
    Poisson arrival process — arrivals do not slow down when the
    cluster does — and reports goodput, shedding, tail latency and
    queue depth. Sweeping the offered rate across the capacity knee
    produces the goodput-vs-offered-load curve: an unprotected cluster
    collapses past the knee (unbounded queues, retry storms), a
    protected one sheds excess and holds its plateau. *)

type point = {
  offered_tps : float;  (** aggregate offered arrival rate *)
  goodput_tps : float;  (** committed transactions per second *)
  committed : int;
  aborted : int;
  shed : int;  (** refusals ({!Core.Transaction.Overloaded}) *)
  deadline_expired : int;
  retry_budget_exhausted : int;
  max_queue_depth : int;
  p50_ms : float;
  p99_ms : float;  (** response latency of committed transactions *)
  abort_rate : float;
}

val sweep :
  ?config:Core.Config.t ->
  ?params:Workload.Microbench.params ->
  ?clients:int ->
  ?jobs:int ->
  mode:Core.Consistency.mode ->
  rates:float list ->
  warmup_ms:float ->
  measure_ms:float ->
  unit ->
  point list
(** [run_point] per rate, in order. Each point is an independent
    simulation, so [jobs] (default 1, {!Runner.map_jobs}) parallelizes
    the sweep without perturbing any result. *)

val pp_point : Format.formatter -> point -> unit

val sweep_json : mode:Core.Consistency.mode -> point list -> Obs.Json.t
(** Versioned artifact envelope for a sweep, one object per point. *)
