(** Batching sweep: the fig-3-style micro-benchmark run twice per point —
    once with the unbatched pipeline and once with the batched
    configuration (group certification + conflict-aware parallel refresh
    apply) — reporting the throughput gain per consistency configuration
    as the update ratio sweeps 0–50%.

    See docs/TUNING.md for the knobs and EXPERIMENTS.md for recorded
    results. *)

val points :
  quick:bool ->
  seed:int ->
  ?config:Core.Config.t ->
  ?batched:(Core.Config.t -> Core.Config.t) ->
  ?clients:int ->
  unit ->
  Runner.point list
(** Every mode at 0, 5, 10, 15 and 20 update types (0, 10 and 20 when
    [quick]), each as a [config] point (default [Config.default]) and
    then a [batched config] point (default {!Core.Config.batched}), with
    [clients] (default 160) clients. *)

val render : (Runner.point * Runner.summary) list -> string
(** Pairs come as {!points} lists them: at each update ratio and mode,
    the baseline run first, then the batched one. *)
