(** A table: schema + MVCC store + secondary indexes.

    Secondary indexes are value -> key-set maps maintained on version
    install (PostgreSQL-style: index entries are never removed on update;
    readers re-check visibility and the predicate against the base row,
    and {!Mvcc.gc} keeps chains short). Index values compare under
    {!Value.equal} and keys under {!Mvcc.Key_hashed}, so an [Int] and
    the integral [Float] of the same value are one entry. *)

type t

val create : Schema.t -> t

val copy : t -> t
(** An independent table with the same contents ({!Mvcc.copy}); the
    secondary indexes are copied too, so writes to either table never
    show in the other's index. *)

val schema : t -> Schema.t

val install : t -> key:Mvcc.key -> version:int -> Value.t array option -> unit
(** Install a row version (or tombstone) at [version]. *)

val install_if_newer : t -> key:Mvcc.key -> version:int -> Value.t array option -> bool
(** {!Mvcc.install_if_newer}: install unless the key already has a
    version at or above [version], updating the secondary indexes only
    when it installs. Returns whether it installed. *)

val read : t -> key:Mvcc.key -> at:int -> Value.t array option

val latest_version : t -> key:Mvcc.key -> int option

val index_lookup : t -> column:int -> value:Value.t -> at:int -> (Mvcc.key * Value.t array) list
(** Visible rows whose indexed [column] equals [value] at snapshot [at].
    Raises [Invalid_argument] if the column has no index. *)

val has_index : t -> column:int -> bool

val index_entries : t -> column:int -> int
(** Number of (value, key) entries in the secondary index on [column]
    (0 without one). Entries are never removed, so this only grows. *)

val scan :
  t -> at:int -> ?where:(Value.t array -> bool) -> ?limit:int -> unit ->
  (Mvcc.key * Value.t array) list * int
(** Full scan in key order at snapshot [at]; returns matching rows and
    the number of rows examined (for the cost model). *)

val range_scan :
  t -> at:int -> ?lo:Mvcc.key -> ?hi:Mvcc.key -> ?where:(Value.t array -> bool) ->
  ?limit:int -> unit -> (Mvcc.key * Value.t array) list * int
(** Like {!scan} but bounded to the inclusive primary-key range
    [\[lo, hi\]]; only rows inside the range are examined. *)

val row_count : t -> at:int -> int
(** Number of visible rows at a snapshot. *)

val version_count : t -> int

val fold_visible :
  t -> at:int -> init:'a -> f:('a -> Mvcc.key -> Value.t array -> 'a) -> 'a

val gc : t -> keep_after:int -> int
