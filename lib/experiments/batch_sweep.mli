(** Batching sweep: the fig-3-style micro-benchmark run twice per point —
    once with the unbatched pipeline ([cert_batch = 1],
    [apply_parallelism = 1]) and once with {!Core.Config.batched}
    (group certification + conflict-aware parallel refresh apply) —
    reporting the throughput gain per consistency configuration as the
    update ratio sweeps 0–50%.

    See docs/TUNING.md for the knobs and EXPERIMENTS.md for recorded
    results. *)

type cell = { baseline : Runner.summary; batched : Runner.summary }

type point = {
  update_types : int;  (** of 40 transaction types *)
  cells : (Core.Consistency.mode * cell) list;
}

val run :
  ?config:Core.Config.t ->
  ?batched:(Core.Config.t -> Core.Config.t) ->
  ?params:Workload.Microbench.params ->
  ?clients:int ->
  ?modes:Core.Consistency.mode list ->
  ?update_points:int list ->
  ?warmup_ms:float ->
  ?measure_ms:float ->
  unit ->
  point list

val render : point list -> string
