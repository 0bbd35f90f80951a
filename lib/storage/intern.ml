(* Dense integer ids for (table, primary-key) conflict identities.

   The certifier's keyed index, the replicas' pending-conflict-key
   multisets and the refresh-apply lane partitioner all key hash tables
   by "which record does this write touch". Before interning, each of
   those tables was keyed by a boxed (string, Value.t array) pair:
   every probe allocated a tuple and ran the polymorphic hash over the
   table name and every key column. Interning resolves each pair to a
   dense int exactly once — when a transaction buffers the write
   (Txn.buffer) — and the hot paths probe int-keyed tables
   (Util.Tables.Itbl) instead.

   One intern table serves one replication group: the cluster creates
   a single table and shares it across the certifier and every replica
   database, so ids are comparable wherever a writeset travels. Every
   writeset is built against its group's table and carries its ids;
   Writeset.cids refuses a different table rather than mixing ids. *)

module Stbl = Util.Tables.Stbl
module Key_tbl = Mvcc.Key_tbl

(* Keys resolve under MVCC's key equality, so an [Int] and the
   integral [Float] of the same value — one row in the store — are one
   conflict identity too. *)
type t = {
  tables : int Key_tbl.t Stbl.t;  (* two levels so resolving never allocates a tuple key *)
  mutable next : int;
}

let create ?(size = 64) () = { tables = Stbl.create size; next = 0 }

let id t ~table ~key =
  let keys =
    match Stbl.find t.tables table with
    | keys -> keys
    | exception Not_found ->
      let keys = Key_tbl.create 256 in
      Stbl.add t.tables table keys;
      keys
  in
  match Key_tbl.find keys key with
  | id -> id
  | exception Not_found ->
    let id = t.next in
    t.next <- id + 1;
    Key_tbl.add keys key id;
    id
