(** Client drivers: the paper's closed-loop RTE threads, plus an
    open-loop arrival process for overload experiments.

    A {e closed-loop} client owns a session and repeatedly thinks,
    generates a transaction from its workload function, submits it, and
    retries on abort (up to [max_retries] conflict retries, under the
    optional per-client retry budget — see docs/PROTOCOL.md, "Overload &
    admission control").

    An {e open-loop} client is an arrival process: transactions arrive
    at a configured rate whether or not earlier ones have completed, so
    offered load can exceed capacity — the regime where admission
    control, retry budgets and deadlines earn their keep. *)

type workload = {
  think_ms : Util.Rng.t -> float;  (** sampled think time before each txn *)
  next_request : Util.Rng.t -> Transaction.request;
}

val spawn : Cluster.t -> sid:int -> rng:Util.Rng.t -> workload -> unit
(** Start one closed-loop client process; it runs until the simulation
    stops. *)

val spawn_many : Cluster.t -> n:int -> first_sid:int -> workload -> unit
(** Start [n] closed-loop clients with distinct sessions and independent
    RNG streams split from the cluster RNG. *)

val open_loop_many :
  Cluster.t ->
  n:int ->
  first_sid:int ->
  rate_tps:float ->
  workload ->
  unit
(** Start [n] open-loop generators with distinct sessions splitting the
    {e aggregate} [rate_tps] evenly between them. The clock, not
    completion, paces arrivals, with exponential (Poisson) gaps
    ([workload.think_ms] is ignored). Each
    arrival runs in its own process with the closed-loop driver's
    abort-class-aware retry loop; the arrivals of one generator share
    its session and its retry budget. Raises [Invalid_argument] on a
    non-positive rate. *)

val no_think : Util.Rng.t -> float
(** Zero think time: back-to-back submission (micro-benchmark). *)

val exp_think : mean_ms:float -> Util.Rng.t -> float
(** Negative-exponential think time (TPC-W). *)
