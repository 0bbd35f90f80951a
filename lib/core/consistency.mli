(** The four consistency configurations of the paper (§III–IV), plus
    the {{!read_tier} read-only tiers} of the mixed-consistency
    extension.

    The paper's {!mode} governs {e write} transactions and the default
    read path: it decides how long a transaction waits at start before
    its snapshot is considered fresh enough. A {!read_tier} is a
    per-request relaxation available to {e read-only} transactions
    when {!Config.read_tiers} is enabled: it trades snapshot freshness
    for response time under an explicit, checkable contract (see
    [docs/CONSISTENCY.md]). *)

type mode =
  | Eager  (** eager strong consistency: global commit delay *)
  | Coarse  (** lazy coarse-grained strong consistency: wait on [V_system] *)
  | Fine  (** lazy fine-grained strong consistency: wait on table-set versions *)
  | Session  (** session consistency: wait on the client's own last version *)
  | Bounded of int
      (** relaxed currency (extension, cf. §VI): transactions may start
          up to [k] versions behind [V_system]. [Bounded 0] coincides
          with [Coarse]. *)

val all : mode list
(** The paper's four configurations (excludes the [Bounded] extension). *)

val is_strong : mode -> bool
(** Whether the mode guarantees strong consistency ([Eager], [Coarse],
    [Fine], and [Bounded 0]). *)

val to_string : mode -> string

val of_string : string -> (mode, string) result

(** {1 Read-only tiers}

    Orthogonal to {!mode}: a read-only request may declare a weaker
    consistency class than the cluster's write mode. Tiered requests
    never delay or weaken concurrent strong transactions — they only
    change where the read is routed and which snapshot floor it waits
    for. *)

type read_tier =
  | Strong
      (** Follow the cluster {!mode} — the default for every request.
          Update transactions are always [Strong]. *)
  | Bounded_staleness of {
      versions : int option;
          (** admit snapshots at most this many versions behind
              [V_system] at start *)
      ms : float option;
          (** admit snapshots no older than [V_system] as of this many
              virtual milliseconds ago *)
    }
      (** Client-declared staleness budget. When both bounds are given
          the snapshot must satisfy both (the floors are combined with
          [max]). The load balancer routes to any replica whose applied
          watermark already satisfies the bound; if none qualifies the
          read waits at the most-caught-up replica until it does — the
          bound is never violated. *)
  | Causal
      (** Read-your-writes + monotonic reads: the snapshot floor is the
          client session's own floor (last commit ack, last snapshot
          read), served without consulting [V_system]. *)
  | Eventual  (** Fastest replica, no snapshot floor at all. *)

val tier_slug : read_tier -> string
(** Stable identifier collapsing bound parameters ("strong",
    "bounded", "causal", "eventual") — used as metrics/telemetry key. *)

val all_tier_slugs : string list
(** All four {!tier_slug} values, in decreasing strength order. *)

val tier_to_string : read_tier -> string
(** Round-trippable rendering: ["strong"], ["bounded:8"],
    ["bounded:50ms"], ["bounded:8,50ms"], ["causal"], ["eventual"]. *)

val tier_of_string : string -> (read_tier, string) result
(** Parse {!tier_to_string}'s formats (case-insensitive). *)
