(** Dense integer ids for (table, primary-key) conflict identities.

    Interning maps each (table, key) pair a writeset touches to a small
    int, assigned on first sight and stable for the lifetime of the
    table. The certification and refresh-apply hot paths key their hash
    tables by these ids ({!Util.Tables.Itbl}) instead of boxed
    (string, value-array) pairs, eliminating tuple allocation and
    polymorphic hashing from every conflict probe. Keys compare by
    {!Mvcc.Key_hashed}, the store's own key equality: [[|Int 3|]] and
    [[|Float 3.0|]] name one row, so they share one id.

    One intern table serves one replication group: ids from different
    tables are not comparable. {!Writeset.t} records which table built
    it, and {!Writeset.cids} re-resolves through the local table when
    handed a foreign writeset. *)

type t

val create : ?size:int -> unit -> t

val id : t -> table:string -> key:Value.t array -> int
(** The id for [(table, key)], assigning the next dense id on first
    sight. Ids count up from 0, so they double as indexes into
    side arrays. *)
