exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

(* The wire-size model. [writeset_bytes] prices every refresh copy,
   standby push and submitted update, so these figures set message
   sizes and, through the network model, virtual time: changing any of
   them moves every pinned digest. The model is a little-endian layout
   with 8-byte integers: a writeset is an entry count, then per entry
   the table name (length + bytes), the key row, a 1-byte op tag and,
   for a put, the row. A row is its arity plus its values; a value is a
   1-byte tag plus 8 bytes for an int or float, or a length and the
   bytes for text. *)

let value_wire_size = function
  | Value.Null | Value.Bool _ -> 1
  | Value.Int _ | Value.Float _ -> 9
  | Value.Text s -> 9 + String.length s

let row_wire_size row =
  Array.fold_left (fun acc v -> acc + value_wire_size v) 8 row

let writeset_bytes ws =
  List.fold_left
    (fun acc e ->
      let op_size =
        match e.Writeset.ws_op with
        | Writeset.Put row -> 1 + row_wire_size row
        | Writeset.Delete -> 1
      in
      acc + 8 + String.length e.Writeset.ws_table + row_wire_size e.Writeset.ws_key
      + op_size)
    8 (Writeset.entries ws)

(* --- Flat Bytes encodings ------------------------------------------- *)

module Flat = struct
  (* An append-only [Bytes] writer and a bounds-checked cursor over it.

     High-volume sinks — the runlog, long-lived accounting streams —
     append into one growing [Bytes] and decode in place, so a soak's
     worth of records costs one flat buffer instead of a heap of boxed
     values. *)

  type writer = {
    mutable bytes : Bytes.t;
    mutable len : int;
  }

  let writer ?(capacity = 4096) () = { bytes = Bytes.create (max 16 capacity); len = 0 }

  let clear w = w.len <- 0

  let ensure w n =
    let cap = Bytes.length w.bytes in
    if w.len + n > cap then begin
      let cap' = max (w.len + n) (2 * cap) in
      let grown = Bytes.create cap' in
      Bytes.blit w.bytes 0 grown 0 w.len;
      w.bytes <- grown
    end

  let u8 w x =
    ensure w 1;
    Bytes.unsafe_set w.bytes w.len (Char.unsafe_chr (x land 0xff));
    w.len <- w.len + 1

  (* An int is a zigzag varint: [x lsl 1] flipped by the sign, so small
     magnitudes of either sign come out small, then 7 bits per byte, low
     bits first, with the high bit set on every byte but the last. A
     63-bit int takes 1 to 9 bytes. *)
  let int w x =
    ensure w 9;
    let b = w.bytes in
    let z = ref ((x lsl 1) lxor (x asr 62)) and i = ref w.len in
    while !z lsr 7 <> 0 do
      Bytes.unsafe_set b !i (Char.unsafe_chr (!z land 0x7f lor 0x80));
      z := !z lsr 7;
      incr i
    done;
    Bytes.unsafe_set b !i (Char.unsafe_chr !z);
    w.len <- !i + 1

  (* The conversion feeds the store directly, so no [Int64] is boxed. *)
  let float w x =
    ensure w 8;
    Bytes.set_int64_le w.bytes w.len (Int64.bits_of_float x);
    w.len <- w.len + 8

  let str w s =
    let n = String.length s in
    int w n;
    ensure w n;
    Bytes.blit_string s 0 w.bytes w.len n;
    w.len <- w.len + n

  type cursor = {
    data : Bytes.t;
    limit : int;
    mutable pos : int;
  }

  let cursor ?limit w =
    let limit = match limit with Some l -> l | None -> w.len in
    if limit > Bytes.length w.bytes then corrupt "flat cursor limit beyond buffer";
    { data = w.bytes; limit; pos = 0 }

  let check c n =
    if c.pos + n > c.limit then
      corrupt "flat decode: need %d bytes at offset %d of %d" n c.pos c.limit

  let read_u8 c =
    check c 1;
    let b = Char.code (Bytes.unsafe_get c.data c.pos) in
    c.pos <- c.pos + 1;
    b

  (* The ninth byte carries the top 7 of the 63 bits, so it must end
     the varint. *)
  let rec read_varint c z shift =
    let b = read_u8 c in
    let z = z lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then z
    else if shift = 56 then corrupt "flat decode: varint longer than 9 bytes at offset %d" c.pos
    else read_varint c z (shift + 7)

  let read_int c =
    let z = read_varint c 0 0 in
    (z lsr 1) lxor -(z land 1)

  let read_float c =
    check c 8;
    let x = Int64.float_of_bits (Bytes.get_int64_le c.data c.pos) in
    c.pos <- c.pos + 8;
    x

  let read_str c =
    let n = read_int c in
    if n < 0 then corrupt "flat decode: negative string length %d" n;
    check c n;
    let s = Bytes.sub_string c.data c.pos n in
    c.pos <- c.pos + n;
    s
end
