(** A database instance: named tables plus the local commit version.

    The version counter matches the paper's model: the database starts at
    version 0 and the version increments by one each time an update
    transaction (local or refresh) commits. {!apply} installs a certified
    writeset at the next version; the replicated system calls it in the
    certifier's total order. *)

type t

val create : ?intern:Intern.t -> unit -> t
(** [?intern] shares a conflict-key intern table across a replication
    group (the cluster passes one table to every replica database and
    the certifier); by default each database gets its own. *)

val intern : t -> Intern.t
(** The intern table writesets extracted from this database ({!Txn.writeset})
    resolve their conflict ids against. *)

val copy : t -> t
(** An independent database with the same tables, contents, indexes and
    version ({!Table.copy}), sharing the original's intern table. Applying
    writesets or {!gc} to one leaves the other unchanged. Costs O(tables
    + index entries), plus O(keys) for each table whose ordered directory
    has been built ({!Mvcc.copy}), and shares every row and every
    table's slot arrays. Each side pays one array copy per table on its
    first write to that table, so a table neither side writes stays
    shared. A cluster builds its initial database once and gives each
    further replica a copy, and state transfer re-seeds a recovering
    replica with a copy of a live peer's. *)

val create_table : t -> Schema.t -> Table.t
(** Raises [Invalid_argument] if a table with that name exists. *)

val table : t -> string -> Table.t
(** Raises [Not_found] for unknown tables. *)

val table_names : t -> string list
(** In creation order. *)

val version : t -> int
(** Current committed version ([V_local] in the paper). *)

val apply : t -> Writeset.t -> version:int -> unit
(** Install every entry of the writeset at [version] and advance the
    database version. Raises [Invalid_argument] unless
    [version = version t + 1] (commits apply in total order) or the
    writeset touches unknown tables. Installation has redo semantics:
    entries already present at [version] (from a partially applied batch
    interrupted by a crash) are skipped, so certifier-log replay is
    idempotent. *)

val apply_unpublished : t -> Writeset.t -> version:int -> unit
(** Install a writeset's row versions {e without} advancing the database
    version: the rows become visible only to snapshots [>= version],
    which no reader can hold until {!publish} moves the version counter
    past it. This is the write half of conflict-aware parallel refresh
    application — non-conflicting writesets of a batch install
    concurrently and out of version order, and the batch becomes visible
    atomically when the whole prefix is durable. Requires
    [version > version t]; same redo semantics as {!apply}. Writesets
    sharing a conflict id ({!Writeset.cids}) must still be installed in
    ascending version order relative to each other (the per-key MVCC
    chains grow newest-first). *)

val publish : t -> version:int -> unit
(** Advance the database version to [version], making every row installed
    by {!apply_unpublished} at versions [<= version] visible to new
    snapshots. The caller guarantees the whole prefix is installed.
    Raises [Invalid_argument] if [version < version t]. *)

val load : t -> string -> Value.t array list -> unit
(** Bulk-load rows into a table as part of version 0 (initial database
    population). Rows are validated against the schema; raises
    [Invalid_argument] on validation failure or if the database has
    already advanced past version 0. *)

val gc : t -> keep_after:int -> int
(** Garbage-collect old versions in all tables. *)

val total_versions : t -> int

val fingerprint : t -> at:int -> int
(** Order-independent hash of the visible contents of every table at
    snapshot [at]. Two replicas that have applied the same prefix of the
    commit order have equal fingerprints — the convergence check used in
    tests. *)
