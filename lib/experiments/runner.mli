(** The experiment point table: every figure, sweep and ablation is a
    list of pinned {!point}s, and {!run} runs any such list over a pool
    of domains. An {!artifact} pairs a point list with the renderer that
    turns its results into one printed table. *)

val map_jobs : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_jobs ~jobs f items] is [List.map f items] computed by [jobs]
    domains pulling items off a shared queue; results keep their item's
    position. Each call to [f] must be self-contained (simulations are:
    engine, RNG, and cluster all live inside the run) — [f] runs off the
    main domain when [jobs > 1]. [jobs <= 1] (the default) is exactly
    [List.map f items] on the calling domain. *)

type workload =
  | Micro of Workload.Microbench.params
  | Span of Workload.Microbench.params * int
      (** micro-benchmark whose update transactions write this many tables *)
  | Hot_key of Workload.Microbench.params * int
      (** micro-benchmark whose updates hit this many hot rows per table *)
  | Tpcw of Workload.Tpcw.params * Workload.Tpcw.mix
  | Tpcc of Workload.Tpcc.params * float
      (** paced terminals with this mean exponential think time, ms *)
  | Ycsb of Workload.Ycsb.params * Workload.Ycsb.mix

type point = {
  mode : Core.Consistency.mode;
  workload : workload;
  replicas : int;
  clients : int;  (** closed-loop clients, one session each *)
  warmup_ms : float;
  measure_ms : float;
  seed : int;
  config : Core.Config.t;  (** [replicas] and [seed] above override its own *)
}

val micro_point :
  quick:bool ->
  seed:int ->
  ?config:Core.Config.t ->
  ?clients:int ->
  Core.Consistency.mode ->
  update_types:int ->
  point
(** A point of the paper's micro-benchmark (§V.A): [Config.default]'s 8
    replicas, 80 clients, 40 tables of 10,000 rows (2,000 when [quick])
    and 2 s + 8 s windows (1 s + 4 s when [quick]). *)

val update_types : point -> int
(** The update transaction types of a micro-benchmark point.
    @raise Invalid_argument on another workload. *)

type summary = {
  mode : Core.Consistency.mode;
  replicas : int;
  clients : int;
  tps : float;
  response_ms : float;
  p99_ms : float;  (** 99th-percentile response time *)
  stage_ms : float array;  (** mean per {!Core.Metrics.stage}, all txns *)
  stage_update_ms : float array;  (** mean per stage, update txns *)
  sync_delay_ms : float;  (** version (all) + global (updates) *)
  abort_rate : float;
  committed : int;
}

val run : ?jobs:int -> point list -> summary list
(** Run each point as its own cluster: build it, attach the clients, run
    warm-up then measurement, and summarize the measured window. The
    summaries come back in point order and do not depend on [jobs]. *)

(** {2 Artifacts} *)

type artifact = {
  points : point list;
  render : (point * summary) list -> string;
}

val render_all : ?jobs:int -> artifact list -> string list
(** Run the points of every artifact in one pool, then render each
    artifact from its own pairs, in list order. *)

val lookup : (point * summary) list -> (point -> bool) -> summary
(** The summary of the first point that satisfies the predicate.
    @raise Not_found if none does. *)

val distinct : 'a list -> 'a list
(** The values in order of first appearance, without repeats. *)

(** {2 Multi-run statistics}

    The paper reports the average of 10 independent runs with deviation
    below 5%; {!replicate} provides the same methodology: run a point
    at [runs] consecutive seeds and aggregate. *)

type aggregate = {
  runs : int;
  mean : summary;  (** throughput/response/stages averaged across runs *)
  tps_stddev : float;
  response_stddev_ms : float;
  tps_rel_dev : float;  (** stddev / mean, the paper's "deviation" *)
}

val replicate : runs:int -> point -> aggregate
(** [replicate ~runs p] runs [p] at seeds [p.seed, p.seed+1, ...].
    Requires [runs >= 1]. *)
