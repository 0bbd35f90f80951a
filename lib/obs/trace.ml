type t = {
  engine : Sim.Engine.t;
  capacity : int;
  ring : Span.t option array;
  mutable write : int;  (* next slot to overwrite *)
  mutable stored : int;
  mutable dropped : int;
  mutable next_span_id : int;
  mutable next_trace_id : int;
}

let create ?(capacity = 65_536) engine =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    engine;
    capacity;
    ring = Array.make capacity None;
    write = 0;
    stored = 0;
    dropped = 0;
    next_span_id = 0;
    next_trace_id = 0;
  }

let now t = Sim.Engine.now t.engine

let next_trace_id t =
  let id = t.next_trace_id in
  t.next_trace_id <- id + 1;
  id

let push t span =
  if t.ring.(t.write) <> None then t.dropped <- t.dropped + 1
  else t.stored <- t.stored + 1;
  t.ring.(t.write) <- Some span;
  t.write <- (t.write + 1) mod t.capacity

let start t ~trace_id ?parent ?at ~component ~name ?(args = []) () =
  let id = t.next_span_id in
  t.next_span_id <- id + 1;
  {
    Span.id;
    trace_id;
    parent = Option.map (fun (p : Span.t) -> p.Span.id) parent;
    name;
    component;
    start_ms = (match at with Some time -> time | None -> now t);
    end_ms = Float.nan;
    args;
  }

let finish t ?(args = []) ?at span =
  span.Span.end_ms <- (match at with Some time -> time | None -> now t);
  if args <> [] then Span.add_args span args;
  push t span

let instant t ~trace_id ?parent ~component ~name ?(args = []) () =
  let span = start t ~trace_id ?parent ~component ~name ~args () in
  finish t span

(* Option-threaded variants: instrumentation sites hold a [t option] so a
   disabled run pays one branch and no allocation. *)

let start_opt t ~trace_id ?parent ~component ~name ?args () =
  match t with
  | None -> None
  | Some t ->
    let parent = Option.join parent in
    Some (start t ~trace_id ?parent ~component ~name ?args ())

let finish_opt t ?args span =
  match (t, span) with
  | Some t, Some span -> finish t ?args span
  | _ -> ()

let instant_opt t ~trace_id ~component ~name ?args () =
  match t with None -> () | Some t -> instant t ~trace_id ~component ~name ?args ()

let spans t =
  (* Oldest-first: the ring wraps at [write]. *)
  let acc = ref [] in
  for i = t.capacity - 1 downto 0 do
    match t.ring.((t.write + i) mod t.capacity) with
    | Some s -> acc := s :: !acc
    | None -> ()
  done;
  !acc

let length t = t.stored

let dropped t = t.dropped

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.write <- 0;
  t.stored <- 0;
  t.dropped <- 0
