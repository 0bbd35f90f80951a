(** Multiversion row store for one table.

    Each key maps to a version chain ordered newest-first. A read at
    snapshot [v] returns the newest version with number [<= v]; a [None]
    row is a deletion tombstone. Versions must be installed in strictly
    increasing version order per key (the replicated system guarantees
    this because commits apply in the certifier's total order).

    A chain is one immutable 4-word block per version (the version
    number, the row and the next older version), so a version costs 4
    words plus its row option. Chains live in an open-addressed table:
    two parallel arrays of [2^k] slots, one of keys and one of chains,
    filled to at most 3/4.
    A lookup ({!read}, {!latest_version}, an install) hashes the key
    once, starts at a home slot taken from the top bits of the hash
    times an odd constant, and compares keys slot by slot until it
    meets the key or a free slot; it allocates nothing. The brand-new
    key that would fill the table past 3/4 doubles both arrays and
    rehashes every key. *)

type key = Value.t array

(** Lexicographic order on keys, under {!Value.compare} per column. *)
module Key_order : sig
  type t = key

  val compare : t -> t -> int
end

(** Key hashing and equality for {!key}s, agreeing with {!Key_order}:
    [equal a b] holds exactly when [Key_order.compare a b = 0], and
    equal keys (an [Int] and the integral [Float] of the same value)
    hash alike. The chain table, the conflict-id table ({!Intern}) and
    the writeset index all use it, so a row, its conflict id and its
    writeset entry mean the same key. [hash] combines the columns under
    a large odd multiplier, so composite keys of small ints, such as
    TPC-C's [(w, d, o, ol)], hash apart. [compare], [equal] and [hash]
    allocate nothing. *)
module Key_hashed : Hashtbl.HashedType with type t = key

val render_key : key -> string
(** The key as the run log writes it: its columns joined by [","].
    Keys render alike exactly when {!Key_hashed.equal} holds (for [Int]
    columns below 2{^53} in magnitude, where every int is a float), so
    a checker may compare rendered keys as strings. An integral [Float]
    renders as the [Int] it equals, any other float exactly ([%h]), and
    every NaN as ["nan"]. *)

module Key_tbl : Hashtbl.S with type key = key

type t

val create : unit -> t

val copy : t -> t
(** An independent store with the same contents: installs and {!gc} on
    either side do not show in the other. Keys, chains and rows are
    immutable and shared, and so are both slot arrays, of keys and of
    chains. The copy allocates a few words, plus a copy of the ordered
    directory if one has been built.

    A shared array is read-only on both sides, and each side copies it
    before its first write to it, a word per slot (between 4/3 and 8/3
    words per key), unless a brand-new key doubles the table anyway.
    The first install, of any key, copies the chains; the first
    brand-new key also copies the keys; a {!gc} copies the chains only
    if it shortens one. A store that is never written after the copy
    never pays. The store copied from pays too, on its next write
    after each [copy] (a state-transfer donor does, for example). *)

val install : t -> key -> version:int -> Value.t array option -> unit
(** Prepend a version ([None] = delete). Raises [Invalid_argument] if
    [version] is not greater than the key's newest version, or if [key]
    is empty ([[||]] marks a free slot of the table). *)

val install_if_newer : t -> key -> version:int -> Value.t array option -> bool
(** Redo install: like {!install} when [version] is above the key's
    newest version, and a no-op returning [false] otherwise. One chain
    lookup either way. *)

val read : t -> key -> at:int -> Value.t array option
(** Visible row at snapshot [at], or [None] if absent/deleted. Allocates
    nothing. *)

val latest_version : t -> key -> int option
(** Version number of the newest version of the key (including
    tombstones); [None] if the key was never written. *)

val key_count : t -> int
(** Number of keys ever written (including currently-deleted ones). *)

val version_count : t -> int
(** Total stored versions across all keys, in O(1). *)

(** {2 Ordered access}

    [iter_keys_ordered], [iter_keys_range] and [fold_visible] read an
    ordered key directory: the keys in ascending order, in chunks of at
    most 64, updated in place. The first ordered
    access on a store builds it in O(n log n) for n keys; from then on
    each {!install} of a brand-new key adds a binary search, a shift of
    at most 64 slots and, when its chunk is full, a split that shifts
    the chunk list; only a split allocates. A range
    visiting k keys costs O(log n + k). A store that is never scanned
    never builds it.

    The walk reads the directory in place, so a callback must not
    install a brand-new key into the store it walks: the walk raises
    [Invalid_argument] when it sees that it has. New versions of
    existing keys are fine. *)

val iter_keys_ordered : t -> (key -> unit) -> unit
(** All keys in ascending key order (visibility not checked). *)

val iter_keys_range : t -> ?lo:key -> ?hi:key -> (key -> unit) -> unit
(** Keys in [\[lo, hi\]] (inclusive bounds, either optional) in ascending
    order. Keys are compared lexicographically, so a one-column prefix
    bound selects all composite keys starting at/before that prefix. *)

val fold_visible : t -> at:int -> init:'a -> f:('a -> key -> Value.t array -> 'a) -> 'a
(** Fold over rows visible at snapshot [at], ascending key order. *)

val gc : t -> keep_after:int -> int
(** Drop versions that can no longer be seen by any snapshot [>
    keep_after]: for each key, keep all versions newer than [keep_after]
    plus the newest one at or below it. Returns versions removed. A
    store in which every key has one version returns 0 in O(1);
    otherwise it reads every slot but writes back only the chains it
    shortens, each as a fresh copy of its kept prefix (4 words per kept
    version above the horizon, plus one for the newest at or below it).
    So a pass that drops nothing allocates and writes nothing, and the
    arrays of a store it does not shorten stay shared. *)
