(** Deterministic pseudo-random number generator.

    A self-contained splitmix64 generator so simulation runs are exactly
    reproducible across machines and independent of [Stdlib.Random]
    version changes. Each simulation component can own an independent
    stream derived with {!split}. *)

type t

val create : int -> t
(** [create seed] is a fresh generator seeded with [seed]. *)

val split : t -> t
(** [split rng] derives an independent generator; it advances [rng]. *)

val int : t -> int -> int
(** [int rng n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float rng x] is uniform in [\[0, x)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf rng ~n ~theta] samples in [\[0, n)] with Zipfian skew [theta]
    (0 = uniform). Uses the rejection-inversion-free approximation that is
    standard in YCSB-style workload generators. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
