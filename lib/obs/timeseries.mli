(** Windowed time-series telemetry on virtual time.

    A {!t} carves the run into fixed windows of [window_ms] virtual
    milliseconds and aggregates three kinds of channels per window:

    - {e counters} ({!counter}/{!bump}): event counts that reset at
      every window boundary (commits, aborts, certifier decisions,
      retransmits, fault injections) — a window's count divided by its
      span is the windowed rate (TPS, decisions/sec);
    - {e distributions} ({!dist}/{!observe}): per-window mergeable
      log-bucketed latency histograms ({!Util.Histogram.Log}), closed
      into p50/p95/p99/max summaries and additionally merged into a
      whole-run histogram per channel;
    - {e probes} ({!add_probe}): gauges read once at each window close
      (replica lag, certifier log length, watermark horizon, epoch).

    Recording costs one hash-free mutation on the hot path; window
    rollover is driven by a simulation process ({!start}) that wakes
    once per window. Nothing here draws randomness or
    perturbs protocol events, so an instrumented run is bit-identical
    in outcome to an uninstrumented one, and two instrumented runs with
    the same seed produce identical series (both are pinned by tests). *)

type t

type counter

type dist

(** One closed window. Channel lists are sorted by name. *)
type summary = {
  count : int;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type window = {
  seq : int;  (** 0-based window index *)
  start_ms : float;
  end_ms : float;
  counters : (string * int) list;
  gauges : (string * float) list;
  dists : (string * summary) list;
}

val create : ?window_ms:float -> ?buckets_per_decade:int -> Sim.Engine.t -> t
(** Defaults: 250 ms windows, 40 histogram buckets per decade. Raises
    [Invalid_argument] on a non-positive window. *)

val window_ms : t -> float

val counter : t -> string -> counter
(** Find or create a per-window counter channel by name. *)

val bump : ?by:int -> counter -> unit

val dist : t -> string -> dist
(** Find or create a per-window distribution channel by name. *)

val observe : dist -> float -> unit

val add_probe : t -> name:string -> (unit -> float) -> unit
(** Register a gauge read at every window close. *)

val add_pre_close : t -> (unit -> unit) -> unit
(** Register a hook run at every window close {e before} the window is
    snapshotted — the place to {!bump} counters with deltas of external
    monotonic sources. *)

val start : t -> unit
(** Spawn the window-rollover process. The process exits after {!stop},
    letting a horizonless [Engine.run] drain. *)

val stop : t -> unit

val flush : t -> unit
(** Close the current window now, if any virtual time has elapsed in it.
    Call after {!stop} to capture the final partial window. *)

val windows : t -> window list
(** Closed windows, oldest first. *)

val merged : t -> string -> Util.Histogram.Log.t option
(** The whole-run histogram of a distribution channel: every closed
    window's histogram merged ({!Util.Histogram.Log.merge}). *)

val rate_per_sec : window -> string -> float
(** A counter's windowed rate: count over the window span, per second of
    virtual time; 0 for an unknown name or an empty window. *)

val gauge_value : window -> string -> float option

val summary_of : window -> string -> summary option
