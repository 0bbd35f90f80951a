type reader = { buf : string; mutable pos : int }

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let reader buf = { buf; pos = 0 }

let reader_at_end r = r.pos >= String.length r.buf

let need r n =
  if r.pos + n > String.length r.buf then
    corrupt "truncated input: need %d bytes at offset %d of %d" n r.pos
      (String.length r.buf)

let expect_raw r expected =
  let n = String.length expected in
  need r n;
  let got = String.sub r.buf r.pos n in
  if not (String.equal got expected) then
    corrupt "expected %S, found %S" expected got;
  r.pos <- r.pos + n

let read_byte r =
  need r 1;
  let b = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  b

let encode_int64 buf x =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xFF))
  done

let decode_int64 r =
  need r 8;
  let x = ref 0L in
  for i = 0 to 7 do
    x :=
      Int64.logor !x
        (Int64.shift_left (Int64.of_int (Char.code r.buf.[r.pos + i])) (8 * i))
  done;
  r.pos <- r.pos + 8;
  !x

let encode_int buf x = encode_int64 buf (Int64.of_int x)

let decode_int r = Int64.to_int (decode_int64 r)

let encode_string buf s =
  encode_int buf (String.length s);
  Buffer.add_string buf s

let decode_string r =
  let len = decode_int r in
  if len < 0 then corrupt "negative string length %d" len;
  need r len;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

(* Value tags. *)
let tag_null = 0
let tag_int = 1
let tag_float = 2
let tag_text = 3
let tag_true = 4
let tag_false = 5

let encode_value buf = function
  | Value.Null -> Buffer.add_char buf (Char.chr tag_null)
  | Value.Int x ->
    Buffer.add_char buf (Char.chr tag_int);
    encode_int buf x
  | Value.Float x ->
    Buffer.add_char buf (Char.chr tag_float);
    encode_int64 buf (Int64.bits_of_float x)
  | Value.Text s ->
    Buffer.add_char buf (Char.chr tag_text);
    encode_string buf s
  | Value.Bool b -> Buffer.add_char buf (Char.chr (if b then tag_true else tag_false))

let decode_value r =
  let tag = read_byte r in
  if tag = tag_null then Value.Null
  else if tag = tag_int then Value.Int (decode_int r)
  else if tag = tag_float then Value.Float (Int64.float_of_bits (decode_int64 r))
  else if tag = tag_text then Value.Text (decode_string r)
  else if tag = tag_true then Value.Bool true
  else if tag = tag_false then Value.Bool false
  else corrupt "unknown value tag %d at offset %d" tag (r.pos - 1)

let encode_row buf row =
  encode_int buf (Array.length row);
  Array.iter (encode_value buf) row

let decode_row r =
  let n = decode_int r in
  if n < 0 || n > 4096 then corrupt "implausible row arity %d" n;
  Array.init n (fun _ -> decode_value r)

let encode_row_opt buf = function
  | None -> Buffer.add_char buf '\000'
  | Some row ->
    Buffer.add_char buf '\001';
    encode_row buf row

let decode_row_opt r =
  match read_byte r with
  | 0 -> None
  | 1 -> Some (decode_row r)
  | b -> corrupt "bad row-option tag %d" b

let encode_writeset buf ws =
  let entries = Writeset.entries ws in
  encode_int buf (List.length entries);
  List.iter
    (fun e ->
      encode_string buf e.Writeset.ws_table;
      encode_row buf e.Writeset.ws_key;
      match e.Writeset.ws_op with
      | Writeset.Put row ->
        Buffer.add_char buf '\001';
        encode_row buf row
      | Writeset.Delete -> Buffer.add_char buf '\000')
    entries

let decode_writeset ?intern r =
  let n = decode_int r in
  if n < 0 then corrupt "negative writeset size %d" n;
  let entries =
    List.init n (fun _ ->
        let ws_table = decode_string r in
        let ws_key = decode_row r in
        let ws_op =
          match read_byte r with
          | 1 -> Writeset.Put (decode_row r)
          | 0 -> Writeset.Delete
          | b -> corrupt "bad writeset op tag %d" b
        in
        { Writeset.ws_table; ws_key; ws_op })
  in
  Writeset.of_entries ?intern entries

(* Exact wire sizes, computed without encoding. [writeset_bytes] sits on
   every message-sizing path (one call per refresh copy, per standby
   push, per submitted update); materializing a Buffer just to read its
   length allocated the whole encoding per message. These mirror the
   encoders above — keep them in lockstep. *)

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

let encode_schema buf (schema : Schema.t) =
  encode_string buf schema.Schema.table_name;
  encode_int buf (Array.length schema.Schema.columns);
  Array.iter
    (fun col ->
      encode_string buf col.Schema.col_name;
      Buffer.add_char buf
        (match col.Schema.col_type with
        | Value.Tint -> 'i'
        | Value.Tfloat -> 'f'
        | Value.Ttext -> 's'
        | Value.Tbool -> 'b');
      Buffer.add_char buf (if col.Schema.nullable then '\001' else '\000'))
    schema.Schema.columns;
  encode_int buf (Array.length schema.Schema.primary_key);
  Array.iter (encode_int buf) schema.Schema.primary_key;
  encode_int buf (Array.length schema.Schema.indexed);
  Array.iter (encode_int buf) schema.Schema.indexed

let decode_schema r =
  let name = decode_string r in
  let ncols = decode_int r in
  if ncols <= 0 || ncols > 4096 then corrupt "implausible column count %d" ncols;
  let columns = ref [] in
  let nullable = ref [] in
  for _ = 1 to ncols do
    let col_name = decode_string r in
    let ty =
      match Char.chr (read_byte r) with
      | 'i' -> Value.Tint
      | 'f' -> Value.Tfloat
      | 's' -> Value.Ttext
      | 'b' -> Value.Tbool
      | c -> corrupt "bad column type %C" c
    in
    (match read_byte r with
    | 1 -> nullable := col_name :: !nullable
    | 0 -> ()
    | b -> corrupt "bad nullable flag %d" b);
    columns := (col_name, ty) :: !columns
  done;
  let columns = List.rev !columns in
  let names = List.map fst columns in
  let nth i =
    match List.nth_opt names i with
    | Some n -> n
    | None -> corrupt "column index %d out of range" i
  in
  let nkeys = decode_int r in
  if nkeys <= 0 || nkeys > ncols then corrupt "implausible key count %d" nkeys;
  let key = List.init nkeys (fun _ -> nth (decode_int r)) in
  let nidx = decode_int r in
  if nidx < 0 || nidx > ncols then corrupt "implausible index count %d" nidx;
  let indexes = List.init nidx (fun _ -> nth (decode_int r)) in
  Schema.make ~name ~columns ~nullable:!nullable ~indexes ~key ()

(* --- Flat Bytes encodings ------------------------------------------- *)

module Flat = struct
  (* An append-only [Bytes] writer and a bounds-checked cursor over it.

     The Buffer-based codec above allocates per encode (the Buffer, its
     internal growth, and the final [contents] copy); high-volume sinks
     — the runlog, long-lived accounting streams — instead append into
     one growing [Bytes] and decode in place, so a soak's worth of
     records costs one flat buffer instead of a heap of boxed values. *)

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

  let i64 w x =
    ensure w 8;
    Bytes.set_int64_le w.bytes w.len x;
    w.len <- w.len + 8

  let int w x = i64 w (Int64.of_int x)

  let float w x = i64 w (Int64.bits_of_float x)

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

  let read_i64 c =
    check c 8;
    let x = Bytes.get_int64_le c.data c.pos in
    c.pos <- c.pos + 8;
    x

  let read_int c = Int64.to_int (read_i64 c)

  let read_float c = Int64.float_of_bits (read_i64 c)

  let read_str c =
    let n = read_int c in
    if n < 0 then corrupt "flat decode: negative string length %d" n;
    check c n;
    let s = Bytes.sub_string c.data c.pos n in
    c.pos <- c.pos + n;
    s
end
