(** Snapshot-isolation transactions over a {!Database.t}.

    A transaction reads from a fixed snapshot version and buffers its own
    writes (read-your-writes). Committing extracts the {!Writeset.t}; in
    the replicated system, certification (first-committer-wins over the
    interval (snapshot, commit]) is performed by the certifier.

    Cost counters record rows scanned/read/written so the simulator can
    charge CPU time proportional to real work. *)

type t

type cost = {
  rows_scanned : int;  (** rows examined by scans/lookups *)
  rows_read : int;  (** rows returned to the client *)
  rows_written : int;  (** buffered writes *)
}

val begin_ : Database.t -> t
(** Start at the current database version. *)

val snapshot : t -> int

val database : t -> Database.t

val cost : t -> cost

val reset_cost : t -> cost
(** Return the counters accumulated since the last reset and zero them;
    used by the replica to charge per-statement CPU time. *)

val clear_cost : t -> unit
(** Zero the counters, like {!reset_cost} without building the record. *)

(** {2 Reads} *)

val get : t -> table:string -> key:Mvcc.key -> Value.t array option
(** Point read by primary key, overlaid with the transaction's writes. *)

val select :
  t -> table:string -> ?where:Expr.t -> ?limit:int -> unit -> Value.t array list
(** Predicate read. Uses a secondary index when [where] contains an
    equality on an indexed column; falls back to a key-ordered scan. *)

val range :
  t -> table:string -> ?lo:Mvcc.key -> ?hi:Mvcc.key -> ?where:Expr.t -> ?limit:int ->
  unit -> Value.t array list
(** Primary-key range read over [\[lo, hi\]] (inclusive, lexicographic —
    a key prefix bounds all composite keys under it), overlaid with the
    transaction's writes. Only rows in the range are charged to the cost
    model. *)

(** {2 Writes (buffered until commit)} *)

val insert : t -> table:string -> Value.t array -> (unit, string) result
(** Fails if the key already exists in the snapshot or the write buffer,
    or on schema validation. *)

val put : t -> table:string -> Value.t array -> (unit, string) result
(** Insert-or-replace (upsert). Schema-validated. *)

val update_key : t -> table:string -> key:Mvcc.key -> set:(string * Expr.t) list -> bool
(** Update one row by key; [false] if the row is absent. *)

val delete : t -> table:string -> ?where:Expr.t -> unit -> int

val delete_key : t -> table:string -> key:Mvcc.key -> bool

(** {2 Commit} *)

val writeset : t -> Writeset.t
(** Buffered writes in first-write order, one entry per record holding
    its last write, with the buffer's conflict ids ({!Writeset.cids}
    against {!Database.intern}). Empty for read-only txns. O(writes):
    each call builds a fresh writeset. *)

val is_read_only : t -> bool

(** {2 Conflict ids}

    Each buffered record's conflict id under the database's
    {!Database.intern} table, resolved once when the record is first
    written. Early certification probes these directly instead of
    building a writeset after every statement. *)

val writes_id : t -> int -> bool
(** Whether the transaction has buffered a write to the record with
    this conflict id. *)

val exists_write_id : t -> (int -> bool) -> bool
(** Whether [f] holds for the conflict id of some buffered record. *)

val commit_standalone : t -> (int, string) result
(** Validate and apply at the next version; for single-node use (the
    replicated system drives validation and apply itself). Returns the
    commit version, or [Error] if validation failed. Read-only
    transactions return the snapshot version. *)
