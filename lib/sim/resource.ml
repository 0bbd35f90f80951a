type t = {
  engine : Engine.t;
  servers : int;
  mutable held : int;
  waiters : Engine.waiters;
  mutable busy_time : float;
  mutable window_start : float;
  mutable last_change : float;
}

(* Invariant: waiters are non-empty only when held = servers. Release
   hands a server directly to the oldest waiter (held is unchanged), so a
   concurrent acquire at the same instant cannot steal it. *)

let create engine ~servers =
  assert (servers > 0);
  let now = Engine.now engine in
  {
    engine;
    servers;
    held = 0;
    waiters = Queue.create ();
    busy_time = 0.0;
    window_start = now;
    last_change = now;
  }

let account t =
  let now = Engine.now t.engine in
  t.busy_time <- t.busy_time +. (float_of_int t.held *. (now -. t.last_change));
  t.last_change <- now

let acquire t =
  if t.held < t.servers then begin
    account t;
    t.held <- t.held + 1
  end
  else Process.wait t.engine t.waiters

let release t =
  account t;
  if Queue.is_empty t.waiters then begin
    t.held <- t.held - 1;
    assert (t.held >= 0)
  end
  else
    (* Ownership transfers to the waiter; held stays constant. *)
    Engine.wake t.engine (Queue.take t.waiters)

let use t ~duration =
  acquire t;
  Process.sleep t.engine duration;
  release t

let busy t = t.held

let servers t = t.servers

let queue_length t = Queue.length t.waiters

let utilization t =
  account t;
  let elapsed = Engine.now t.engine -. t.window_start in
  if elapsed <= 0.0 then 0.0
  else t.busy_time /. (elapsed *. float_of_int t.servers)

let reset_utilization t =
  let now = Engine.now t.engine in
  t.busy_time <- 0.0;
  t.window_start <- now;
  t.last_change <- now
