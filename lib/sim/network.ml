type t = {
  engine : Engine.t;
  rng : Util.Rng.t;
  base_ms : float;
  jitter_ms : float;
  bandwidth_mbps : float;
  rto_ms : float;
  mutable faults : Faults.t option;
  mutable messages : int;
  mutable bytes : int;
  mutable retransmits : int;
  (* per-(src, dst) wire-copy counters; untagged endpoints appear as
     [unspecified]. Keyed by a packed endpoint pair ([link_key]) so the
     per-message lookup hashes one int instead of allocating and
     polymorphically hashing a tuple. *)
  links : (int ref * int ref) Util.Tables.Itbl.t;
}

let create ?(rto_ms = 5.0) engine ~rng ~base_ms ~jitter_ms ~bandwidth_mbps =
  {
    engine;
    rng;
    base_ms;
    jitter_ms;
    bandwidth_mbps;
    rto_ms;
    faults = None;
    messages = 0;
    bytes = 0;
    retransmits = 0;
    links = Util.Tables.Itbl.create 64;
  }

let set_faults t faults = t.faults <- Some faults

let latency t ~size_bytes =
  let jitter = if t.jitter_ms > 0.0 then Util.Rng.float t.rng t.jitter_ms else 0.0 in
  let transmission =
    if t.bandwidth_mbps > 0.0 then
      (* bits / (Mbit/s) = microseconds; convert to ms. *)
      float_of_int (size_bytes * 8) /. (t.bandwidth_mbps *. 1000.0)
    else 0.0
  in
  t.base_ms +. jitter +. transmission

let unspecified = min_int

(* Endpoint ids are small (|id| < 2^30): replica indices from 0 and a
   handful of negative infrastructure nodes (certifier, standbys, LB,
   client). Taking the low 31 bits maps non-negatives to [0, 2^30) and
   negatives to (2^30, 2^31) injectively; [unspecified] gets the gap
   value 2^30 between the two ranges. Pack the pair into one int. *)
let[@inline] norm_endpoint i =
  if i = unspecified then 0x4000_0000 else i land 0x7fff_ffff

let[@inline] link_key ~src ~dst = (norm_endpoint src lsl 31) lor norm_endpoint dst

let record ?(src = unspecified) ?(dst = unspecified) t size_bytes =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + size_bytes;
  let key = link_key ~src ~dst in
  let msgs, bytes =
    match Util.Tables.Itbl.find_opt t.links key with
    | Some cell -> cell
    | None ->
      let cell = (ref 0, ref 0) in
      Util.Tables.Itbl.add t.links key cell;
      cell
  in
  incr msgs;
  bytes := !bytes + size_bytes

let link_messages t ~src ~dst =
  match Util.Tables.Itbl.find_opt t.links (link_key ~src ~dst) with
  | Some (m, _) -> !m
  | None -> 0

let link_bytes t ~src ~dst =
  match Util.Tables.Itbl.find_opt t.links (link_key ~src ~dst) with
  | Some (_, b) -> !b
  | None -> 0

let judge t ~src ~dst =
  match t.faults with None -> Faults.Deliver | Some f -> Faults.judge f ~src ~dst

let send ?(src = unspecified) ?(dst = unspecified) t ~size_bytes callback =
  match judge t ~src ~dst with
  | Faults.Deliver ->
      record ~src ~dst t size_bytes;
      Engine.schedule t.engine ~delay:(latency t ~size_bytes) callback
  | Faults.Drop _ ->
      (* The message went out on the wire (count it) but never arrives. *)
      record ~src ~dst t size_bytes
  | Faults.Duplicate ->
      record ~src ~dst t size_bytes;
      record ~src ~dst t size_bytes;
      Engine.schedule t.engine ~delay:(latency t ~size_bytes) callback;
      Engine.schedule t.engine ~delay:(latency t ~size_bytes) callback
  | Faults.Delay extra_ms ->
      record ~src ~dst t size_bytes;
      Engine.schedule t.engine ~delay:(latency t ~size_bytes +. extra_ms) callback

(* One round trip of a stop-and-wait exchange: returns [true] when the
   message got through, [false] when it was lost and the caller waited out
   the retransmission timer. *)
let attempt t ~src ~dst ~size_bytes =
  match judge t ~src ~dst with
  | Faults.Deliver ->
      record ~src ~dst t size_bytes;
      Process.sleep t.engine (latency t ~size_bytes);
      true
  | Faults.Drop _ ->
      record ~src ~dst t size_bytes;
      Process.sleep t.engine t.rto_ms;
      false
  | Faults.Duplicate ->
      (* Extra copy on the wire; the receiver dedups, so the caller just
         pays for the first arrival. *)
      record ~src ~dst t size_bytes;
      record ~src ~dst t size_bytes;
      Process.sleep t.engine (latency t ~size_bytes);
      true
  | Faults.Delay extra_ms ->
      record ~src ~dst t size_bytes;
      Process.sleep t.engine (latency t ~size_bytes +. extra_ms);
      true

let transfer ?(src = unspecified) ?(dst = unspecified) t ~size_bytes =
  let rec loop () =
    if not (attempt t ~src ~dst ~size_bytes) then (
      t.retransmits <- t.retransmits + 1;
      loop ())
  in
  loop ()

let transfer_bounded ?(src = unspecified) ?(dst = unspecified) t ~size_bytes ~max_tries =
  let rec loop tries =
    if attempt t ~src ~dst ~size_bytes then Ok ()
    else if tries + 1 >= max_tries then Error `Timeout
    else (
      t.retransmits <- t.retransmits + 1;
      loop (tries + 1))
  in
  if max_tries <= 0 then Error `Timeout else loop 0

let messages_sent t = t.messages

let bytes_sent t = t.bytes

let retransmits t = t.retransmits
