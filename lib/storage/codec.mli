(** Wire-size accounting for writesets and the flat binary encoding of
    the run-log sink. *)

exception Corrupt of string
(** Raised by the {!Flat} cursor on a read past its limit, a malformed
    length or a varint longer than 9 bytes. *)

val writeset_bytes : Writeset.t -> int
(** The modelled wire size of a writeset, in bytes: every refresh,
    standby push and update request is priced by it, so it sets message
    sizes and virtual time. Computed directly from the entries; nothing
    is encoded. *)

(** Flat [Bytes]-based encoding for high-volume sinks: an append-only
    growing buffer plus a bounds-checked in-place cursor. Appending
    allocates nothing beyond the occasional doubling, and decoding walks
    the buffer without an intermediate copy. The runlog sink
    ({!Check.Runlog}) stores every committed transaction's record this
    way during chaos soaks. *)
module Flat : sig
  type writer

  val writer : ?capacity:int -> unit -> writer
  val clear : writer -> unit

  val u8 : writer -> int -> unit

  val int : writer -> int -> unit
  (** A zigzag varint: 1 byte for [-64 .. 63], at most 9 for any int. *)

  val float : writer -> float -> unit
  (** The 8 bytes of the IEEE bits, little-endian. *)

  val str : writer -> string -> unit
  (** The length as an {!int}, then the bytes. *)

  type cursor

  val cursor : ?limit:int -> writer -> cursor
  (** Read back what was written, in place (no copy). The writer must
      not be appended to while the cursor is live. *)

  val read_u8 : cursor -> int
  val read_int : cursor -> int
  val read_float : cursor -> float
  val read_str : cursor -> string
end
