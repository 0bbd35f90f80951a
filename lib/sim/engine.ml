type waiters = (unit, unit) Effect.Deep.continuation Queue.t

(* An event is either a scheduled closure or a parked process, which is
   its bare continuation: no closure per sleep or wake. *)
type event =
  | Call of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation

(* [park_queue] is [no_queue] except between a [request_wait] and the
   [park] that consumes it; [park] resets it at once, so the engine never
   keeps a primitive's waiter queue alive. *)
let no_queue : waiters = Queue.create ()

type t = {
  mutable clock : float;
  events : event Util.Pqueue.t;
  mutable executed : int;
  mutable park_delay : float;
  mutable park_queue : waiters;
}

let create () =
  {
    clock = 0.0;
    events = Util.Pqueue.create ();
    executed = 0;
    park_delay = 0.0;
    park_queue = no_queue;
  }

let now t = t.clock

let push t ~delay event =
  let delay = if delay < 0.0 then 0.0 else delay in
  Util.Pqueue.push t.events (t.clock +. delay) event

let schedule t ~delay f = push t ~delay (Call f)

let schedule_at t ~time f =
  let time = if time < t.clock then t.clock else time in
  Util.Pqueue.push t.events time (Call f)

let pending t = Util.Pqueue.length t.events

let executed t = t.executed

let wake t k = push t ~delay:0.0 (Resume k)

let request_sleep t delay = t.park_delay <- delay

let request_wait t waiters = t.park_queue <- waiters

let park t k =
  let waiters = t.park_queue in
  if waiters == no_queue then push t ~delay:t.park_delay (Resume k)
  else begin
    t.park_queue <- no_queue;
    Queue.add k waiters
  end

(* The two run loops below are the simulator's innermost cycle: use the
   allocation-free queue accessors (min_prio/pop_exn), not peek/pop. *)

let step t =
  if Util.Pqueue.is_empty t.events then false
  else begin
    t.clock <- Util.Pqueue.min_prio t.events;
    t.executed <- t.executed + 1;
    (match Util.Pqueue.pop_exn t.events with
    | Call f -> f ()
    | Resume k -> Effect.Deep.continue k ());
    true
  end

let run ?until t =
  match until with
  | None ->
    let rec loop () = if step t then loop () in
    loop ()
  | Some horizon ->
    if horizon < t.clock then invalid_arg "Engine.run: until is in the past";
    let rec loop () =
      if
        (not (Util.Pqueue.is_empty t.events))
        && Util.Pqueue.min_prio t.events <= horizon
      then begin
        ignore (step t);
        loop ()
      end
      else t.clock <- horizon
    in
    loop ()
