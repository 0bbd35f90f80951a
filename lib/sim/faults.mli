(** Deterministic fault injection for the simulated network and hosts.

    A fault plan is consulted by {!Network.send}/{!Network.transfer} on
    every message: it can drop the message, duplicate it, or add a delay
    spike, per link ([src], [dst] node ids) or globally; scripted
    partitions cut whole link groups for a scheduled window; per-node
    slowdown windows model gray (slow-but-alive) hosts.

    Determinism: the plan draws from its {e own} {!Util.Rng.t}, never
    from the network's, and draws only when the relevant probability is
    non-zero — so a plan whose every probability is zero consumes no random
    numbers and a run with it attached is bit-identical to a run without
    one. Same seed + same plan ⇒ same fault schedule.

    Node ids are plain ints chosen by the embedding (the cluster uses
    replica indices ≥ 0 and negative constants for client, load balancer
    and certifier — see {!Core.Config}). Messages sent without [src]/[dst]
    are subject only to the default spec, never to link rules or
    partitions. *)

type t

(** Per-link probabilistic fault spec. [delay_ms] is the extra latency
    added when a delay spike fires. *)
type spec = {
  drop : float;  (** P(message lost) *)
  duplicate : float;  (** P(message delivered twice) *)
  delay : float;  (** P(delay spike) *)
  delay_ms : float;  (** spike magnitude, added to the sampled latency *)
}

val spec :
  ?drop:float -> ?duplicate:float -> ?delay:float -> ?delay_ms:float -> unit -> spec
(** A spec with the given fields; the rest are zero. *)

type drop_reason = [ `Random | `Partition | `Script ]

val any : int
(** Wildcard node id for link rules: [set_link ~src:any ~dst:3] applies
    to every tagged message addressed to node 3. *)

val create : ?seed:int -> Engine.t -> t
(** An empty plan (every probability zero). [seed] (default 0) drives the
    plan's private RNG. *)

val set_default : t -> spec -> unit
(** The spec applied to links without a more specific rule (including
    untagged messages). *)

val set_link : t -> src:int -> dst:int -> spec -> unit
(** Per-link override; [any] wildcards one side. Lookup order:
    [(src,dst)], [(src,any)], [(any,dst)], then the default spec. *)

val script_drop : t -> src:int -> dst:int -> count:int -> unit
(** Deterministically drop the next [count] messages on the exact link
    (consulted before partitions and probabilistic rules). *)

val partition :
  t -> ?symmetric:bool -> a:int list -> b:int list -> from_ms:float -> until_ms:float ->
  unit -> unit
(** Cut all links from group [a] to group [b] during
    [[from_ms, until_ms)]. [b = []] means "every node not in [a]".
    [symmetric] (default [true]) also cuts [b] to [a]; [false] gives a
    partial (one-directional) partition. [until_ms = infinity] never
    heals. *)

val partitioned : t -> src:int -> dst:int -> bool
(** Whether a message [src → dst] would currently be cut by a partition. *)

val slow : t -> node:int -> factor:float -> from_ms:float -> until_ms:float -> unit
(** Gray failure: multiply the node's service times by [factor] during
    the window (the embedding consults {!slowdown}). Overlapping windows
    compound. *)

val slowdown : t -> node:int -> float
(** The node's current service-time multiplier (1.0 outside any window). *)

type verdict =
  | Deliver
  | Drop of drop_reason
  | Duplicate
  | Delay of float  (** extra ms on top of the sampled latency *)

val judge : t -> src:int -> dst:int -> verdict
(** Decide one message's fate (called by {!Network}): scripted drops,
    then partitions, then the link spec's probabilistic draws. Updates
    the counters below. *)

val drops : t -> int

val duplicates : t -> int

val delays : t -> int
