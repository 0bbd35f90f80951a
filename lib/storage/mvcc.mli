(** Multiversion row store for one table.

    Each key maps to a version chain ordered newest-first. A read at
    snapshot [v] returns the newest version with number [<= v]; a [None]
    row is a deletion tombstone. Versions must be installed in strictly
    increasing version order per key (the replicated system guarantees
    this because commits apply in the certifier's total order). *)

type key = Value.t array

(** Lexicographic order on keys. *)
module Key_order : sig
  type t = key

  val compare : t -> t -> int
end

(** Key hashing and equality for {!key}s, agreeing with {!Key_order}:
    keys equal under [Key_order.compare] (an [Int] and the integral
    [Float] of the same value) hash alike. The chain table, the
    conflict-id table ({!Intern}) and the writeset index all use it,
    so a row, its conflict id and its writeset entry mean the same
    key. *)
module Key_hashed : Hashtbl.HashedType with type t = key

module Key_tbl : Hashtbl.S with type key = key

type t

val create : unit -> t

val install : t -> key -> version:int -> Value.t array option -> unit
(** Prepend a version ([None] = delete). Raises [Invalid_argument] if
    [version] is not greater than the key's newest version. *)

val install_if_newer : t -> key -> version:int -> Value.t array option -> bool
(** Redo install: like {!install} when [version] is above the key's
    newest version, and a no-op returning [false] otherwise. One chain
    lookup either way. *)

val read : t -> key -> at:int -> Value.t array option
(** Visible row at snapshot [at], or [None] if absent/deleted. *)

val latest_version : t -> key -> int option
(** Version number of the newest version of the key (including
    tombstones); [None] if the key was never written. *)

val key_count : t -> int
(** Number of keys ever written (including currently-deleted ones). *)

val version_count : t -> int
(** Total stored versions across all keys. *)

(** {2 Ordered access}

    [iter_keys_ordered], [iter_keys_range], [fold_visible] and
    [fold_chains] read an ordered key directory. The first ordered
    access on a store builds it in O(n log n) for n keys; from then on
    each {!install} of a brand-new key adds O(log n), and a range
    visiting k keys costs O(log n + k). A store that is never scanned
    never builds it. Each call walks the directory as it stood when the
    call began, so keys installed by the callback are not visited. *)

val iter_keys_ordered : t -> (key -> unit) -> unit
(** All keys in ascending key order (visibility not checked). *)

val iter_keys_range : t -> ?lo:key -> ?hi:key -> (key -> unit) -> unit
(** Keys in [\[lo, hi\]] (inclusive bounds, either optional) in ascending
    order. Keys are compared lexicographically, so a one-column prefix
    bound selects all composite keys starting at/before that prefix. *)

val fold_visible : t -> at:int -> init:'a -> f:('a -> key -> Value.t array -> 'a) -> 'a
(** Fold over rows visible at snapshot [at], ascending key order. *)

val fold_chains :
  t -> init:'a -> f:('a -> key -> (int * Value.t array option) list -> 'a) -> 'a
(** Fold over every key's full version chain (newest first), ascending
    key order. Used by checkpointing. *)

val gc : t -> keep_after:int -> int
(** Drop versions that can no longer be seen by any snapshot [>
    keep_after]: for each key, keep all versions newer than [keep_after]
    plus the newest one at or below it. Returns versions removed. *)
