(** Binary encoding of storage values, rows, writesets and schemas.

    Used for database checkpoints ({!Database.snapshot}), for exact
    wire-size accounting of propagated writesets, and for replica state
    transfer in recovery. The format is little-endian, self-describing
    via tag bytes, and versioned by a leading magic string. *)

type reader

val reader : string -> reader
(** A cursor over an encoded buffer, starting at offset 0. *)

val reader_at_end : reader -> bool

val expect_raw : reader -> string -> unit
(** Consume exactly these raw bytes; raises {!Corrupt} on mismatch.
    Used for magic headers. *)

exception Corrupt of string
(** Raised by every [decode_*] on malformed input. *)

val encode_value : Buffer.t -> Value.t -> unit
val decode_value : reader -> Value.t

val encode_row : Buffer.t -> Value.t array -> unit
val decode_row : reader -> Value.t array

val encode_row_opt : Buffer.t -> Value.t array option -> unit
val decode_row_opt : reader -> Value.t array option

val encode_int : Buffer.t -> int -> unit
val decode_int : reader -> int

val encode_writeset : Buffer.t -> Writeset.t -> unit

val decode_writeset : ?intern:Intern.t -> reader -> Writeset.t
(** [?intern] is forwarded to {!Writeset.of_entries}: state transfer
    passes the recovering group's table so decoded writesets carry
    cached conflict ids. *)

val writeset_bytes : Writeset.t -> int
(** Exact encoded size of a writeset, computed directly — no
    intermediate encoding is materialized. Equal to the length
    {!encode_writeset} would produce. *)

val encode_schema : Buffer.t -> Schema.t -> unit
val decode_schema : reader -> Schema.t

(** Flat [Bytes]-based encoding for high-volume sinks: an append-only
    growing buffer plus a bounds-checked in-place cursor. Unlike the
    [Buffer]-based codec above, appending allocates nothing beyond the
    occasional doubling, and decoding walks the buffer without an
    intermediate copy. The runlog sink ({!Check.Runlog}) stores every
    committed transaction's record this way during chaos soaks. *)
module Flat : sig
  type writer

  val writer : ?capacity:int -> unit -> writer
  val clear : writer -> unit

  val u8 : writer -> int -> unit
  val int : writer -> int -> unit
  val float : writer -> float -> unit
  val str : writer -> string -> unit

  type cursor

  val cursor : ?limit:int -> writer -> cursor
  (** Read back what was written, in place (no copy). The writer must
      not be appended to while the cursor is live. *)

  val read_u8 : cursor -> int
  val read_int : cursor -> int
  val read_float : cursor -> float
  val read_str : cursor -> string
end
