(** Sample statistics accumulators.

    {!t} stores every observation (needed for exact percentiles of
    latency samples); {!Online} is a constant-space Welford accumulator
    for high-volume counters. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int

val total : t -> float

val mean : t -> float
(** Mean of the observations; [0.] when empty. *)

val stddev : t -> float
(** Sample standard deviation; [0.] when fewer than two observations. *)

val min_value : t -> float
(** Smallest observation; [0.] when empty. *)

val max_value : t -> float
(** Largest observation; [0.] when empty. *)

val percentile : t -> float -> float
(** [percentile s p] with [p] in [\[0, 100\]]; nearest-rank on the sorted
    sample; [0.] when empty. *)

val merge : t -> t -> t
(** A fresh accumulator holding the observations of both arguments. *)

val clear : t -> unit

(** Constant-space running mean (Welford). *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
end
