(** Latency-vs-staleness frontier for mixed-consistency read tiers
    (docs/CONSISTENCY.md).

    One {!Runner} point per sweep value: coarse-grained write mode,
    [read_tiers = true], and a mixed workload whose reads split evenly
    across strong / bounded / causal / eventual. The sweep varies the
    [max_lag] (in versions) that bounded reads declare; each summary
    carries, per tier, mean and p99 read response plus served staleness,
    and the coarse mode's gating battery over the run log (mode-level
    on [Strong]-class records, the three tier contracts on their own
    classes). *)

val default_bounds : int list

val points :
  ?config:Core.Config.t ->
  ?params:Workload.Microbench.params ->
  ?clients:int ->
  ?bounds:int list ->
  ?seed:int ->
  ?warmup_ms:float ->
  ?measure_ms:float ->
  unit ->
  Runner.point list
(** One point per bound, in order. [read_tiers] and [record_log] are
    forced on in whatever config is supplied. Defaults: 4 replicas, 24
    clients, 8 tables with 4 update types (a keep-up regime with
    frequent per-session writes, so causal floors stay current and the
    tier ordering is observable), seed 42, 1 s + 4 s windows. *)

val bound : Runner.point -> int
(** The bounded-staleness [max_lag] of a frontier point. *)

val ordered : Runner.summary -> bool
(** eventual < bounded < causal < strong mean read response held. *)

val total_violations : Runner.summary -> int
(** Violations summed over the gating battery. *)

val ok : (Runner.point * Runner.summary) list -> bool
(** No contract violations anywhere, and the latency ordering
    eventual < bounded < causal < strong holds at some bound [>= 8]
    (tight bounds legitimately price like strong reads). *)

val render : (Runner.point * Runner.summary) list -> string
(** Table plus latency-vs-bound chart. *)
