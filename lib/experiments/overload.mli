(** Open-loop offered-rate sweeps (docs/PROTOCOL.md, "Overload &
    admission control").

    Each point drives the cluster with a rate-paced ({e open-loop})
    Poisson arrival process — arrivals do not slow down when the
    cluster does — and reports goodput, shedding, tail latency and
    queue depth. Sweeping the offered rate across the capacity knee
    produces the goodput-vs-offered-load curve: an unprotected cluster
    collapses past the knee (unbounded queues, retry storms), a
    protected one sheds excess and holds its plateau. *)

val points :
  config:Core.Config.t ->
  ?params:Workload.Microbench.params ->
  ?clients:int ->
  mode:Core.Consistency.mode ->
  rates:float list ->
  warmup_ms:float ->
  measure_ms:float ->
  unit ->
  Runner.point list
(** One {!Runner} point per aggregate offered rate, in order, at the
    config's replicas and seed. Defaults: the paper's micro-benchmark,
    16 generators. *)

val pp_point : Format.formatter -> Runner.point * Runner.summary -> unit
(** One line: offered rate, goodput, p50/p99, committed, aborted, shed,
    expired, budget-exhausted, deepest queue. *)

val sweep_json :
  mode:Core.Consistency.mode -> (Runner.point * Runner.summary) list -> Obs.Json.t
(** Versioned artifact envelope for a sweep, one object per point. *)
