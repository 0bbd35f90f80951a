(** Latency histograms. *)

(** Mergeable log-bucketed (HDR-style) histogram.

    Buckets are geometric: bucket [i] covers
    [\[10^(i/sub), 10^((i+1)/sub))] with [sub] buckets per decade, so the
    value range is unbounded in both directions and quantile answers
    carry a bounded {e relative} error of [10^(1/(2*sub)) - 1] (about
    2.9% at the default [sub = 40]). Two histograms with the same
    bucketing merge by pointwise count addition — commutative and
    associative — which is what lets per-window latency histograms roll
    up into whole-run distributions ({!Obs.Timeseries}). *)
module Log : sig
  type t

  val create : ?buckets_per_decade:int -> unit -> t
  (** Default 40 buckets per decade. Raises [Invalid_argument] when
      [buckets_per_decade <= 0]. *)

  val buckets_per_decade : t -> int

  val add : t -> float -> unit
  (** Record one observation. Values [<= 0] land in a dedicated zero
      bucket ordered below every geometric bucket. *)

  val count : t -> int

  val is_empty : t -> bool

  val min_value : t -> float
  (** Exact smallest observation (negative observations clamp to 0);
      [0.] when empty. *)

  val max_value : t -> float
  (** Exact largest observation; [0.] when empty. *)

  val percentile : t -> float -> float
  (** [percentile h p] with [p] in [\[0, 100\]] (clamped): nearest-rank
      over the buckets, answering with the hit bucket's geometric
      midpoint clamped to the exact observed [\[min, max\]]; a rank that
      lands on the last observation answers the exact max (so p100 is
      exact, matching {!Stats.percentile}). [0.] when empty. *)

  val merge : t -> t -> t
  (** A fresh histogram holding the observations of both arguments.
      Raises [Invalid_argument] on a bucketing mismatch. *)

  val clear : t -> unit
end
