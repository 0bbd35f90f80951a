(** Transaction writesets.

    A writeset is the set of records a transaction inserted, updated or
    deleted, keyed by (table, primary key). It is the unit the certifier
    checks for write-write conflicts and the payload of refresh
    transactions propagated to remote replicas. Every writeset is built
    against one {!Intern} table — the replication group's — and carries
    the dense conflict id of each record it writes ({!cids}). *)

type op =
  | Put of Value.t array  (** insert or full-row update *)
  | Delete

type entry = {
  ws_table : string;
  ws_key : Value.t array;
  ws_op : op;
}

type t

val of_entries : intern:Intern.t -> entry list -> t
(** Later entries for the same (table, key) supersede earlier ones.
    Keys compare by {!Mvcc.Key_hashed}, as everywhere else: [[|Int 3|]]
    and [[|Float 3.0|]] are one record. Each distinct (table, key) is
    resolved to its conflict id under [intern] at build time and cached
    in the writeset. *)

val of_resolved : intern:Intern.t -> entry list -> int array -> t
(** [of_resolved ~intern entries cids]: a writeset whose conflict ids
    are already resolved. [cids.(i)] is the id under [intern] of the
    [i]th entry, and the entries name distinct records. No interning or
    dedup pass runs; the caller ({!Txn.writeset}, whose write buffer
    holds one cell and one id per record) guarantees both. *)

val is_empty : t -> bool

val entries : t -> entry list
(** In insertion order (after per-key superseding). *)

val cardinal : t -> int
(** Number of distinct (table, key) pairs written. O(1). *)

val tables : t -> string list
(** Distinct tables written, in first-write order. *)

val cids : t -> intern:Intern.t -> int array
(** The conflict ids of {!entries}, in the same order: the cached array,
    without allocating. Two writesets write a common record iff their
    ids intersect — the relation the certifier's index probes and the
    replicas use to partition a refresh batch into independently
    applicable lanes.
    @raise Invalid_argument unless [intern] is (physically) the table
    the writeset was built against. *)
