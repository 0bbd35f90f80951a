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

(* The event queue has two halves, and both keep the order by time, then
   FIFO among events due at the same time. An event due at the current
   instant goes to [ring], a FIFO; a later one goes to the heap [events].
   [step] runs a heap event due now before the ring: it was pushed before
   the clock reached its time, so before every event in the ring. The ring
   is empty whenever the clock moves. *)
type t = {
  mutable clock : float;
  events : event Util.Pqueue.t;
  mutable ring : event array;  (* power-of-two capacity *)
  mutable head : int;
  mutable count : int;
  mutable executed : int;
  mutable park_delay : float;
  mutable park_queue : waiters;
}

(* Fills fresh ring slots; never run. *)
let no_event = Call ignore

let create () =
  {
    clock = 0.0;
    events = Util.Pqueue.create ();
    ring = Array.make 64 no_event;
    head = 0;
    count = 0;
    executed = 0;
    park_delay = 0.0;
    park_queue = no_queue;
  }

let now t = t.clock

let grow_ring t =
  let ring = t.ring in
  let capacity = Array.length ring in
  let grown = Array.make (2 * capacity) no_event in
  let first = capacity - t.head in
  Array.blit ring t.head grown 0 first;
  Array.blit ring 0 grown first t.head;
  t.ring <- grown;
  t.head <- 0

let enqueue_now t event =
  if t.count = Array.length t.ring then grow_ring t;
  let ring = t.ring in
  Array.unsafe_set ring ((t.head + t.count) land (Array.length ring - 1)) event;
  t.count <- t.count + 1

(* A popped slot keeps its stale event until the ring wraps onto it, as
   the heap's vacated slots do. *)
let dequeue_now t =
  let ring = t.ring in
  let event = Array.unsafe_get ring t.head in
  t.head <- (t.head + 1) land (Array.length ring - 1);
  t.count <- t.count - 1;
  event

(* A time at or before the clock (a negative delay, a past [schedule_at])
   is due now; only NaN fails both comparisons. The sum is passed to the
   heap as its two boxed operands, so that no new box is allocated. *)
let push t ~delay event =
  let time = t.clock +. delay in
  if time <= t.clock then enqueue_now t event
  else if time > t.clock then Util.Pqueue.push_after t.events t.clock delay event
  else invalid_arg "Engine: event time is NaN"

let schedule t ~delay f = push t ~delay (Call f)

let schedule_at t ~time f =
  if time <= t.clock then enqueue_now t (Call f)
  else if time > t.clock then Util.Pqueue.push t.events time (Call f)
  else invalid_arg "Engine: event time is NaN"

let pending t = Util.Pqueue.length t.events + t.count

let executed t = t.executed

let wake t k = enqueue_now t (Resume k)

let request_sleep t delay =
  if Float.is_nan delay then invalid_arg "Process.sleep: duration is NaN";
  t.park_delay <- delay

let request_wait t waiters = t.park_queue <- waiters

let park t k =
  let waiters = t.park_queue in
  if waiters == no_queue then push t ~delay:t.park_delay (Resume k)
  else begin
    t.park_queue <- no_queue;
    Queue.add k waiters
  end

let run_event t event =
  t.executed <- t.executed + 1;
  match event with
  | Call f -> f ()
  | Resume k -> Effect.Deep.continue k ()

(* The two run loops below are the simulator's innermost cycle. They test
   the heap with [min_le], which boxes nothing, and write the boxed clock
   only when it moves. *)

let step t =
  let heap = t.events in
  (* The heap never holds an event earlier than the clock, so [min_le]
     here means "due now". *)
  if Util.Pqueue.min_le heap t.clock then begin
    run_event t (Util.Pqueue.pop_exn heap);
    true
  end
  else if t.count > 0 then begin
    run_event t (dequeue_now t);
    true
  end
  else if Util.Pqueue.is_empty heap then false
  else begin
    (* Past the first test, the heap's minimum is later than the clock. *)
    t.clock <- Util.Pqueue.min_prio heap;
    run_event t (Util.Pqueue.pop_exn heap);
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
    if Float.is_nan horizon then invalid_arg "Engine.run: until is NaN";
    if horizon < t.clock then invalid_arg "Engine.run: until is in the past";
    while t.count > 0 || Util.Pqueue.min_le t.events horizon do
      ignore (step t)
    done;
    t.clock <- horizon
