(** Transaction writesets.

    A writeset is the set of records a transaction inserted, updated or
    deleted, keyed by (table, primary key). It is the unit the certifier
    checks for write-write conflicts and the payload of refresh
    transactions propagated to remote replicas. *)

type op =
  | Put of Value.t array  (** insert or full-row update *)
  | Delete

type entry = {
  ws_table : string;
  ws_key : Value.t array;
  ws_op : op;
}

type t

val empty : t

val of_entries : ?intern:Intern.t -> entry list -> t
(** Later entries for the same (table, key) supersede earlier ones.
    With [?intern], each distinct (table, key) is resolved to its dense
    conflict id at build time and cached in the writeset ({!cids}); the
    writeset remembers the table as its {!origin}. Cluster code always
    passes the group's shared table so every conflict probe downstream
    runs over ints. *)

val of_resolved : intern:Intern.t -> entry list -> int array -> t
(** [of_resolved ~intern entries cids]: a writeset whose conflict ids
    are already resolved. [cids.(i)] is the id under [intern] of the
    [i]th entry, and the entries name distinct records. No interning or dedup pass runs; the caller
    ({!Txn.writeset}, whose write buffer holds one cell and one id per
    record) guarantees both. *)

val is_empty : t -> bool

val entries : t -> entry list
(** In insertion order (after per-key superseding). *)

val cardinal : t -> int
(** Number of distinct (table, key) pairs written. O(1): stored at
    construction — {!conflicts} consults both sides' cardinality on
    every certification check. *)

val tables : t -> string list
(** Distinct tables written, in first-write order. *)

val origin : t -> Intern.t option
(** The intern table the cached ids were resolved against, if any. *)

val interned : t -> intern:Intern.t -> bool
(** Whether {!cids} against [intern] is the zero-cost cached path. *)

val cids : t -> intern:Intern.t -> int array
(** The conflict ids of {!keys}, in insertion order, resolved against
    [intern]. When the writeset was built with that same table
    (physically equal — the cluster hot path) this returns the cached
    array without allocating; otherwise each key is re-resolved through
    [intern], assigning fresh ids as needed. *)

val mem : t -> table:string -> key:Value.t array -> bool
(** Keys compare by {!Mvcc.Key_hashed}, as everywhere else: [[|Int 3|]]
    and [[|Float 3.0|]] are one record, in {!of_entries}' superseding,
    in [mem] and in {!conflicts}. *)

val keys : t -> (string * Value.t array) list
(** The conflict keys: every (table, primary key) the writeset touches,
    in insertion order. Two writesets {!conflicts} iff their key lists
    intersect — the relation the replicas use to partition a refresh
    batch into independently applicable lanes. *)

val conflicts : t -> t -> bool
(** Whether the two writesets write a common (table, key). *)

val size_bytes : t -> int
(** Approximate propagation footprint. *)

val pp : Format.formatter -> t -> unit
