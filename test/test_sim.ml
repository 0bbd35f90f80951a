(* Tests for the discrete-event simulation kernel. *)

let test_engine_time_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:5.0 (fun () -> log := "b" :: !log);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.Engine.schedule e ~delay:9.0 (fun () -> log := "c" :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "events in time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 9.0 (Sim.Engine.now e)

let test_engine_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Sim.Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "same-instant events run FIFO" [ 0; 1; 2; 3; 4 ]
    (List.rev !log)

let test_engine_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Sim.Engine.schedule e ~delay:100.0 (fun () -> incr fired);
  Sim.Engine.run e ~until:10.0;
  Alcotest.(check int) "only events before the horizon" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock parked at horizon" 10.0 (Sim.Engine.now e);
  Alcotest.(check int) "future event still queued" 1 (Sim.Engine.pending e)

(* The clock never moves backwards: a horizon in the past is an error,
   not a rewind that would run a later event out of time order. *)
let test_engine_until_past () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  let note () = seen := Sim.Engine.now e :: !seen in
  Sim.Process.spawn e (fun () ->
      Sim.Process.sleep e 10.0;
      note ();
      Sim.Process.sleep e 1.0;
      note ());
  Sim.Engine.run e ~until:10.0;
  Alcotest.check_raises "past horizon rejected"
    (Invalid_argument "Engine.run: until is in the past") (fun () ->
      Sim.Engine.run e ~until:5.0);
  Alcotest.(check (float 0.)) "clock unchanged" 10.0 (Sim.Engine.now e);
  Sim.Engine.schedule e ~delay:1.0 note;
  Sim.Engine.run e;
  Alcotest.(check (list (float 0.))) "events in time order" [ 10.0; 11.0; 11.0 ]
    (List.rev !seen)

let test_engine_negative_delay_clamped () =
  let e = Sim.Engine.create () in
  let at = ref (-1.0) in
  Sim.Engine.schedule e ~delay:5.0 (fun () ->
      Sim.Engine.schedule e ~delay:(-3.0) (fun () -> at := Sim.Engine.now e));
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "negative delay fires now" 5.0 !at

(* NaN is neither before nor after the clock: an event due at NaN would
   never run and stay pending, and a NaN horizon would become the clock. *)
let test_engine_nan_times () =
  let e = Sim.Engine.create () in
  let bad_time = Invalid_argument "Engine: event time is NaN" in
  Alcotest.check_raises "schedule ~delay:nan" bad_time (fun () ->
      Sim.Engine.schedule e ~delay:Float.nan ignore);
  Alcotest.check_raises "schedule_at ~time:nan" bad_time (fun () ->
      Sim.Engine.schedule_at e ~time:Float.nan ignore);
  Alcotest.check_raises "run ~until:nan" (Invalid_argument "Engine.run: until is NaN")
    (fun () -> Sim.Engine.run e ~until:Float.nan);
  let slept = ref "" in
  Sim.Process.spawn e (fun () ->
      match Sim.Process.sleep e Float.nan with
      | () -> slept := "slept"
      | exception Invalid_argument msg -> slept := msg);
  Sim.Engine.run e ~until:1.0;
  Alcotest.(check string) "sleep nan" "Process.sleep: duration is NaN" !slept;
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending e);
  Alcotest.(check (float 0.)) "clock unharmed" 1.0 (Sim.Engine.now e)

(* Random programs against a reference model of the engine: a plain list
   of (time, push index, event), run in that order. Events schedule more
   events (past [schedule_at] times included), spawn processes that sleep
   and wait on conditions and ivars, and wake them; the top level runs to
   a few horizons, then to the end. Times come from a few values, so ties
   are common, and bursts of 65+ same-instant events outgrow the engine's
   ring. Each [Note] logs its label and the clock. *)
type op =
  | Note of int
  | Schedule of float * op list
  | Schedule_at of float * op list  (* offset from the clock *)
  | Burst of int * int  (* first label, count: zero-delay notes *)
  | Spawn of op list
  | Sleep of float
  | Wait of int  (* until the next broadcast of this condition *)
  | Read of int  (* this ivar *)
  | Broadcast of int
  | Fill of int

let rec pp_op = function
  | Note i -> Printf.sprintf "Note %d" i
  | Schedule (d, b) -> Printf.sprintf "Schedule (%g, %s)" d (pp_ops b)
  | Schedule_at (o, b) -> Printf.sprintf "Schedule_at (%g, %s)" o (pp_ops b)
  | Burst (i, n) -> Printf.sprintf "Burst (%d, %d)" i n
  | Spawn b -> Printf.sprintf "Spawn %s" (pp_ops b)
  | Sleep d -> Printf.sprintf "Sleep %g" d
  | Wait c -> Printf.sprintf "Wait %d" c
  | Read i -> Printf.sprintf "Read %d" i
  | Broadcast c -> Printf.sprintf "Broadcast %d" c
  | Fill i -> Printf.sprintf "Fill %d" i

and pp_ops ops = "[" ^ String.concat "; " (List.map pp_op ops) ^ "]"

let gen_program st =
  let open QCheck.Gen in
  let label = ref 0 in
  let fresh n =
    let first = !label in
    label := first + n;
    first
  in
  let delay = oneofl [ 0.0; 0.5; 1.0; 2.0 ] in
  let rec ops ~proc depth st = List.init (int_bound 4 st) (fun _ -> op ~proc depth st)
  and op ~proc depth st =
    match int_bound (if depth > 0 then 10 else 5) st with
    | 0 | 1 -> Note (fresh 1)
    | 2 -> Broadcast (int_bound 1 st)
    | 3 -> Fill (int_bound 1 st)
    | 4 when proc -> Sleep (delay st)
    | 5 when proc -> if bool st then Wait (int_bound 1 st) else Read (int_bound 1 st)
    | 4 | 5 -> Note (fresh 1)
    | 6 | 7 -> Schedule (delay st, ops ~proc:false (depth - 1) st)
    | 8 -> Schedule_at (oneofl [ -1.0; 0.0; 0.5; 1.0; 2.0 ] st, ops ~proc:false (depth - 1) st)
    | 9 -> Spawn (ops ~proc:true (depth - 1) st)
    | _ ->
      let n = 65 + int_bound 100 st in
      Burst (fresh n, n)
  in
  let phases = 1 + int_bound 3 st in
  List.init phases (fun _ ->
      let top = ops ~proc:false 3 st in
      (top, oneofl [ 0.0; 0.5; 1.0; 2.0; 3.0 ] st))

(* Runs [program] on the engine; returns the notes and, after each
   horizon, the clock and pending count. *)
let run_engine program =
  let e = Sim.Engine.create () in
  let log = ref [] and checkpoints = ref [] in
  let note label = log := (label, Sim.Engine.now e) :: !log in
  let conds = Array.init 2 (fun _ -> Sim.Condition.create e) in
  let generation = Array.make 2 0 in
  let ivars = Array.init 2 (fun _ -> Sim.Ivar.create e) in
  let rec exec = function
    | [] -> ()
    | op :: rest ->
      (match op with
      | Note label -> note label
      | Schedule (delay, body) -> Sim.Engine.schedule e ~delay (fun () -> exec body)
      | Schedule_at (offset, body) ->
        Sim.Engine.schedule_at e ~time:(Sim.Engine.now e +. offset) (fun () -> exec body)
      | Burst (first, n) ->
        for k = 0 to n - 1 do
          Sim.Engine.schedule e ~delay:0.0 (fun () -> note (first + k))
        done
      | Spawn body -> Sim.Process.spawn e (fun () -> exec body)
      | Sleep d -> Sim.Process.sleep e d
      | Wait c ->
        let seen = generation.(c) in
        Sim.Condition.await conds.(c) (fun () -> generation.(c) > seen)
      | Read i -> Sim.Ivar.read ivars.(i)
      | Broadcast c ->
        generation.(c) <- generation.(c) + 1;
        Sim.Condition.broadcast conds.(c)
      | Fill i -> if not (Sim.Ivar.is_filled ivars.(i)) then Sim.Ivar.fill ivars.(i) ());
      exec rest
  in
  List.iter
    (fun (top, ahead) ->
      exec top;
      Sim.Engine.run e ~until:(Sim.Engine.now e +. ahead);
      checkpoints := (Sim.Engine.now e, Sim.Engine.pending e) :: !checkpoints)
    program;
  Sim.Engine.run e;
  (List.rev !log, List.rev ((Sim.Engine.now e, Sim.Engine.pending e) :: !checkpoints))

(* The same program on the reference model. A suspended process is the
   rest of its op list; a wake queues it at the current time. *)
let run_model program =
  let now = ref 0.0 and pushes = ref 0 and queue = ref [] in
  let log = ref [] and checkpoints = ref [] in
  let push time run =
    queue := (Float.max time !now, !pushes, run) :: !queue;
    incr pushes
  in
  let cond_waiters = Array.make 2 [] and ivar_waiters = Array.make 2 [] in
  let filled = Array.make 2 false in
  let wake_all waiters = List.iter (fun resume -> push !now resume) waiters in
  let rec exec = function
    | [] -> ()
    | op :: rest -> (
      match op with
      | Sleep d -> push (!now +. d) (fun () -> exec rest)
      | Wait c -> cond_waiters.(c) <- cond_waiters.(c) @ [ (fun () -> exec rest) ]
      | Read i when not filled.(i) ->
        ivar_waiters.(i) <- ivar_waiters.(i) @ [ (fun () -> exec rest) ]
      | _ ->
        (match op with
        | Note label -> log := (label, !now) :: !log
        | Schedule (delay, body) -> push (!now +. delay) (fun () -> exec body)
        | Schedule_at (offset, body) -> push (!now +. offset) (fun () -> exec body)
        | Burst (first, n) ->
          for k = 0 to n - 1 do
            push !now (fun () -> log := (first + k, !now) :: !log)
          done
        | Spawn body -> push !now (fun () -> exec body)
        | Broadcast c ->
          let waiters = cond_waiters.(c) in
          cond_waiters.(c) <- [];
          wake_all waiters
        | Fill i ->
          if not filled.(i) then begin
            filled.(i) <- true;
            wake_all ivar_waiters.(i);
            ivar_waiters.(i) <- []
          end
        | Sleep _ | Wait _ | Read _ -> ());
        exec rest)
  in
  let rec run_until horizon =
    let earliest =
      List.fold_left
        (fun best ((time, index, _) as entry) ->
          match best with
          | Some (t, i, _) when t < time || (t = time && i < index) -> best
          | _ -> Some entry)
        None !queue
    in
    match earliest with
    | Some (time, index, run) when time <= horizon ->
      queue := List.filter (fun (_, i, _) -> i <> index) !queue;
      now := time;
      run ();
      run_until horizon
    | _ -> ()
  in
  List.iter
    (fun (top, ahead) ->
      exec top;
      let horizon = !now +. ahead in
      run_until horizon;
      now := horizon;
      checkpoints := (!now, List.length !queue) :: !checkpoints)
    program;
  run_until Float.infinity;
  (List.rev !log, List.rev ((!now, List.length !queue) :: !checkpoints))

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine runs events in (time, push) order" ~count:300
    (QCheck.make gen_program
       ~print:(fun program ->
         String.concat "\n"
           (List.map (fun (top, ahead) -> Printf.sprintf "%s; run +%g" (pp_ops top) ahead) program)))
    (fun program -> run_engine program = run_model program)

let test_process_sleep () =
  let e = Sim.Engine.create () in
  let wake = ref 0.0 in
  Sim.Process.spawn e (fun () ->
      Sim.Process.sleep e 3.0;
      Sim.Process.sleep e 4.0;
      wake := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "sleeps accumulate" 7.0 !wake

(* [Process.every] sleeps before its first run, a blocking body delays
   the next tick by its own duration, and the event stream equals the
   hand-written sleep-then-body loop it replaces, interleaved with a
   competing process ticking at the same instants. *)
let test_process_every () =
  let ticks ~block =
    let e = Sim.Engine.create () in
    let seen = ref [] in
    Sim.Process.every e ~period:10.0 (fun () ->
        seen := Sim.Engine.now e :: !seen;
        if block > 0.0 then Sim.Process.sleep e block);
    Sim.Engine.run e ~until:50.0;
    List.rev !seen
  in
  Alcotest.(check (list (float 0.0))) "first run one period in" [ 10.; 20.; 30.; 40.; 50. ]
    (ticks ~block:0.0);
  Alcotest.(check (list (float 0.0))) "a blocking body delays the next tick"
    [ 10.; 23.; 36.; 49. ] (ticks ~block:3.0);
  let trace periodic =
    let e = Sim.Engine.create () in
    let log = ref [] in
    let note tag () = log := (tag, Sim.Engine.now e) :: !log in
    Sim.Process.spawn e (fun () ->
        let rec loop () =
          Sim.Process.sleep e 5.0;
          note "other" ();
          loop ()
        in
        loop ());
    periodic e (note "tick");
    Sim.Process.spawn e (fun () ->
        let rec loop () =
          Sim.Process.sleep e 10.0;
          note "after" ();
          loop ()
        in
        loop ());
    Sim.Engine.run e ~until:60.0;
    (List.rev !log, Sim.Engine.pending e)
  in
  let hand_rolled e f =
    Sim.Process.spawn e (fun () ->
        let rec loop () =
          Sim.Process.sleep e 10.0;
          f ();
          loop ()
        in
        loop ())
  in
  let every_log, every_pending = trace (fun e f -> Sim.Process.every e ~period:10.0 f) in
  let loop_log, loop_pending = trace hand_rolled in
  Alcotest.(check (list (pair string (float 0.0)))) "same events as the loop" loop_log
    every_log;
  Alcotest.(check int) "same pending events" loop_pending every_pending

let test_ivar () =
  let e = Sim.Engine.create () in
  let iv = Sim.Ivar.create e in
  let a = ref 0 and b = ref 0 in
  Sim.Process.spawn e (fun () -> a := Sim.Ivar.read iv);
  Sim.Process.spawn e (fun () -> b := Sim.Ivar.read iv);
  Sim.Process.spawn e (fun () ->
      Sim.Process.sleep e 2.0;
      Sim.Ivar.fill iv 7);
  Sim.Engine.run e;
  Alcotest.(check (pair int int)) "both readers woke" (7, 7) (!a, !b);
  Alcotest.(check bool) "filled" true (Sim.Ivar.is_filled iv);
  Alcotest.check_raises "double fill rejected" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Sim.Ivar.fill iv 8)

let test_ivar_read_after_fill () =
  let e = Sim.Engine.create () in
  let iv = Sim.Ivar.create e in
  Sim.Ivar.fill iv "x";
  let got = ref "" in
  Sim.Process.spawn e (fun () -> got := Sim.Ivar.read iv);
  Sim.Engine.run e;
  Alcotest.(check string) "immediate read" "x" !got

let test_resource_mutual_exclusion () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e ~servers:1 in
  let finish = ref [] in
  for i = 0 to 2 do
    Sim.Process.spawn e (fun () ->
        Sim.Resource.use r ~duration:10.0;
        finish := (i, Sim.Engine.now e) :: !finish)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list (pair int (float 1e-9))))
    "serial service, FIFO order"
    [ (0, 10.0); (1, 20.0); (2, 30.0) ]
    (List.rev !finish)

let test_resource_parallel_servers () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e ~servers:2 in
  let finish = ref [] in
  for i = 0 to 3 do
    Sim.Process.spawn e (fun () ->
        Sim.Resource.use r ~duration:10.0;
        finish := (i, Sim.Engine.now e) :: !finish)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list (pair int (float 1e-9))))
    "two at a time"
    [ (0, 10.0); (1, 10.0); (2, 20.0); (3, 20.0) ]
    (List.rev !finish)

let test_resource_no_handoff_steal () =
  (* A release with a queued waiter must hand the server to the waiter
     even if another process acquires at the same instant. *)
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e ~servers:1 in
  let order = ref [] in
  Sim.Process.spawn e (fun () ->
      Sim.Resource.use r ~duration:5.0;
      order := "holder-done" :: !order);
  Sim.Process.spawn e (fun () ->
      Sim.Process.sleep e 1.0;
      Sim.Resource.acquire r;
      order := "waiter" :: !order;
      Sim.Resource.release r);
  Sim.Process.spawn e (fun () ->
      Sim.Process.sleep e 5.0;
      (* arrives exactly when the first holder releases *)
      Sim.Resource.acquire r;
      order := "latecomer" :: !order;
      Sim.Resource.release r);
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "FIFO handoff" [ "holder-done"; "waiter"; "latecomer" ] (List.rev !order);
  Alcotest.(check int) "all released" 0 (Sim.Resource.busy r)

let test_resource_utilization () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e ~servers:1 in
  Sim.Process.spawn e (fun () ->
      Sim.Resource.use r ~duration:5.0;
      Sim.Process.sleep e 5.0);
  Sim.Engine.run e;
  Alcotest.(check (float 0.001)) "50% busy" 0.5 (Sim.Resource.utilization r)

let test_resource_queue_length () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e ~servers:1 in
  let observed = ref (-1) in
  for _ = 0 to 2 do
    Sim.Process.spawn e (fun () -> Sim.Resource.use r ~duration:10.0)
  done;
  Sim.Engine.schedule e ~delay:5.0 (fun () -> observed := Sim.Resource.queue_length r);
  Sim.Engine.run e;
  (* At t=5 one holder is in service and two wait behind it. *)
  Alcotest.(check int) "two waiting mid-service" 2 !observed;
  Alcotest.(check int) "drained" 0 (Sim.Resource.queue_length r);
  Alcotest.(check int) "servers accessor" 1 (Sim.Resource.servers r)

let test_resource_reset_utilization_window () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e ~servers:1 in
  Sim.Process.spawn e (fun () ->
      (* Busy for the whole first window... *)
      Sim.Resource.use r ~duration:10.0;
      Sim.Resource.reset_utilization r;
      (* ...then idle for half of the second. *)
      Sim.Process.sleep e 5.0;
      Sim.Resource.use r ~duration:5.0);
  Sim.Engine.run e;
  (* Only the post-reset window counts: 5 busy out of 10. *)
  Alcotest.(check (float 0.001)) "window restarted at reset" 0.5
    (Sim.Resource.utilization r)

let test_resource_multi_server_fifo_wakeup () =
  (* With k=2 servers and 4 waiters behind 2 holders, releases must wake
     waiters in arrival order, not in release or reverse order. *)
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e ~servers:2 in
  let order = ref [] in
  for i = 0 to 5 do
    Sim.Process.spawn e (fun () ->
        (* Stagger arrivals so the queue order is unambiguous. *)
        Sim.Process.sleep e (float_of_int i *. 0.1);
        Sim.Resource.acquire r;
        order := i :: !order;
        Sim.Process.sleep e 10.0;
        Sim.Resource.release r)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "service entry follows arrival order" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !order);
  Alcotest.(check int) "all released" 0 (Sim.Resource.busy r)

let test_condition_await () =
  let e = Sim.Engine.create () in
  let c = Sim.Condition.create e in
  let v = ref 0 in
  let woke_at = ref 0.0 in
  Sim.Process.spawn e (fun () ->
      Sim.Condition.await c (fun () -> !v >= 3);
      woke_at := Sim.Engine.now e);
  Sim.Process.spawn e (fun () ->
      for _ = 1 to 3 do
        Sim.Process.sleep e 1.0;
        incr v;
        Sim.Condition.broadcast c
      done);
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "woke only when predicate held" 3.0 !woke_at

let test_condition_immediate () =
  let e = Sim.Engine.create () in
  let c = Sim.Condition.create e in
  let ran = ref false in
  Sim.Process.spawn e (fun () ->
      Sim.Condition.await c (fun () -> true);
      ran := true);
  Sim.Engine.run e;
  Alcotest.(check bool) "no broadcast needed when predicate holds" true !ran

let test_network_latency_positive () =
  let e = Sim.Engine.create () in
  let rng = Util.Rng.create 3 in
  let net = Sim.Network.create e ~rng ~base_ms:0.5 ~jitter_ms:0.2 ~bandwidth_mbps:100.0 in
  let arrived = ref 0.0 in
  Sim.Network.send net ~size_bytes:1000 (fun () -> arrived := Sim.Engine.now e);
  Sim.Engine.run e;
  (* base 0.5 + jitter <=0.2 + 8000 bits / 100 Mbps = 0.08ms *)
  Alcotest.(check bool)
    (Printf.sprintf "latency in [0.58, 0.78] (got %f)" !arrived)
    true
    (!arrived >= 0.58 && !arrived <= 0.78);
  Alcotest.(check int) "accounted" 1 (Sim.Network.messages_sent net)

let test_network_latency_formula () =
  (* With jitter 0 the sampled delay is exactly base + size/bandwidth. *)
  let e = Sim.Engine.create () in
  let rng = Util.Rng.create 3 in
  let net = Sim.Network.create e ~rng ~base_ms:0.5 ~jitter_ms:0.0 ~bandwidth_mbps:100.0 in
  let arrived = ref nan in
  Sim.Network.send net ~size_bytes:10_000 (fun () -> arrived := Sim.Engine.now e);
  Sim.Engine.run e;
  (* 80,000 bits / 100 Mbps = 0.8 ms *)
  Alcotest.(check (float 1e-12)) "base + serialization" 1.3 !arrived

let test_network_determinism () =
  (* Same seed, same traffic: identical delivery times and accounting. *)
  let run () =
    let e = Sim.Engine.create () in
    let rng = Util.Rng.create 99 in
    let net = Sim.Network.create e ~rng ~base_ms:0.4 ~jitter_ms:0.3 ~bandwidth_mbps:50.0 in
    let times = ref [] in
    for i = 1 to 20 do
      Sim.Network.send net ~size_bytes:(i * 100) (fun () ->
          times := Sim.Engine.now e :: !times)
    done;
    Sim.Engine.run e;
    (List.rev !times, Sim.Network.messages_sent net, Sim.Network.bytes_sent net)
  in
  let t1, m1, b1 = run () and t2, m2, b2 = run () in
  Alcotest.(check (list (float 0.0))) "same delivery times" t1 t2;
  Alcotest.(check int) "same messages" m1 m2;
  Alcotest.(check int) "same bytes" b1 b2;
  Alcotest.(check int) "all sent" 20 m1;
  Alcotest.(check int) "bytes are the sum" (100 * 210) b1

let make_faulty_net ?(seed = 7) ?(base_ms = 0.1) () =
  let e = Sim.Engine.create () in
  let rng = Util.Rng.create 5 in
  let net =
    Sim.Network.create ~rto_ms:1.0 e ~rng ~base_ms ~jitter_ms:0.0
      ~bandwidth_mbps:1000.0
  in
  let f = Sim.Faults.create ~seed e in
  Sim.Network.set_faults net f;
  (e, net, f)

let test_network_drop_path () =
  let e, net, f = make_faulty_net () in
  Sim.Faults.script_drop f ~src:1 ~dst:2 ~count:1;
  let delivered = ref 0 in
  Sim.Network.send net ~src:1 ~dst:2 ~size_bytes:100 (fun () -> incr delivered);
  Sim.Network.send net ~src:1 ~dst:2 ~size_bytes:100 (fun () -> incr delivered);
  Sim.Engine.run e;
  Alcotest.(check int) "first dropped, second delivered" 1 !delivered;
  Alcotest.(check int) "dropped message still counts as offered load" 2
    (Sim.Network.messages_sent net);
  Alcotest.(check int) "drop counted" 1 (Sim.Faults.drops f)

let test_network_duplicate_path () =
  let e, net, f = make_faulty_net () in
  Sim.Faults.set_link f ~src:1 ~dst:2 (Sim.Faults.spec ~duplicate:1.0 ());
  let delivered = ref 0 in
  Sim.Network.send net ~src:1 ~dst:2 ~size_bytes:100 (fun () -> incr delivered);
  Sim.Engine.run e;
  Alcotest.(check int) "delivered twice" 2 !delivered;
  Alcotest.(check int) "both copies counted" 2 (Sim.Network.messages_sent net);
  Alcotest.(check int) "duplicate counted" 1 (Sim.Faults.duplicates f)

let test_network_partition_window () =
  let e, net, f = make_faulty_net () in
  Sim.Faults.partition f ~a:[ 1 ] ~b:[] ~from_ms:0.0 ~until_ms:5.0 ();
  let delivered = ref [] in
  Sim.Process.spawn e (fun () ->
      Alcotest.(check bool) "cut both ways while open" true
        (Sim.Faults.partitioned f ~src:2 ~dst:1);
      Sim.Network.send net ~src:1 ~dst:2 ~size_bytes:10 (fun () ->
          delivered := `During :: !delivered);
      Sim.Process.sleep e 6.0;
      Alcotest.(check bool) "healed" false (Sim.Faults.partitioned f ~src:1 ~dst:2);
      Sim.Network.send net ~src:1 ~dst:2 ~size_bytes:10 (fun () ->
          delivered := `After :: !delivered));
  Sim.Engine.run e;
  Alcotest.(check bool) "only the post-heal message arrived" true
    (!delivered = [ `After ]);
  Alcotest.(check int) "partition drop counted" 1 (Sim.Faults.drops f)

let test_network_partition_ignores_untagged () =
  (* Untagged endpoints ({!Sim.Network.unspecified}) belong to no group:
     a partition — even one with a [b = []] "everyone else" side — must
     never cut a message whose src or dst is untagged. *)
  let e, net, f = make_faulty_net () in
  Sim.Faults.partition f ~a:[ 1 ] ~b:[] ~from_ms:0.0 ~until_ms:infinity ();
  Alcotest.(check bool) "tagged -> untagged not cut" false
    (Sim.Faults.partitioned f ~src:1 ~dst:Sim.Network.unspecified);
  Alcotest.(check bool) "untagged -> tagged not cut" false
    (Sim.Faults.partitioned f ~src:Sim.Network.unspecified ~dst:1);
  let delivered = ref 0 in
  Sim.Network.send net ~size_bytes:10 (fun () -> incr delivered);
  Sim.Network.send net ~src:1 ~size_bytes:10 (fun () -> incr delivered);
  Sim.Network.send net ~dst:1 ~size_bytes:10 (fun () -> incr delivered);
  Sim.Engine.run e;
  Alcotest.(check int) "untagged and half-tagged messages flow" 3 !delivered

let test_network_asymmetric_partition () =
  let e, net, f = make_faulty_net () in
  Sim.Faults.partition f ~symmetric:false ~a:[ 1 ] ~b:[ 2 ] ~from_ms:0.0
    ~until_ms:infinity ();
  let forward = ref false and backward = ref false in
  Sim.Network.send net ~src:1 ~dst:2 ~size_bytes:10 (fun () -> forward := true);
  Sim.Network.send net ~src:2 ~dst:1 ~size_bytes:10 (fun () -> backward := true);
  Sim.Engine.run e;
  Alcotest.(check bool) "1 -> 2 cut" false !forward;
  Alcotest.(check bool) "2 -> 1 still flows" true !backward

let test_network_transfer_persists () =
  let e, net, f = make_faulty_net () in
  Sim.Faults.partition f ~a:[ 1 ] ~b:[] ~from_ms:0.0 ~until_ms:10.0 ();
  let done_at = ref nan in
  Sim.Process.spawn e (fun () ->
      Sim.Network.transfer net ~src:1 ~dst:2 ~size_bytes:10;
      done_at := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check bool)
    (Printf.sprintf "completed only after heal (%.2f)" !done_at)
    true
    (!done_at >= 10.0 && !done_at < 13.0);
  Alcotest.(check bool) "retransmissions recorded" true
    (Sim.Network.retransmits net >= 5)

let test_network_transfer_bounded_gives_up () =
  let e, net, f = make_faulty_net () in
  Sim.Faults.partition f ~a:[ 1 ] ~b:[] ~from_ms:0.0 ~until_ms:infinity ();
  let result = ref (Ok ()) in
  Sim.Process.spawn e (fun () ->
      result := Sim.Network.transfer_bounded net ~src:1 ~dst:2 ~size_bytes:10
          ~max_tries:3);
  Sim.Engine.run e;
  Alcotest.(check bool) "gave up" true (!result = Error `Timeout);
  Alcotest.(check int) "three attempts offered" 3 (Sim.Network.messages_sent net)

let test_faults_determinism () =
  (* Same plan seed, same judged link sequence: identical verdicts. *)
  let run () =
    let e = Sim.Engine.create () in
    let f = Sim.Faults.create ~seed:11 e in
    Sim.Faults.set_default f
      (Sim.Faults.spec ~drop:0.2 ~duplicate:0.1 ~delay:0.2 ~delay_ms:3.0 ());
    List.init 200 (fun i ->
        match Sim.Faults.judge f ~src:(i mod 3) ~dst:((i + 1) mod 3) with
        | Sim.Faults.Deliver -> 0
        | Sim.Faults.Drop _ -> 1
        | Sim.Faults.Duplicate -> 2
        | Sim.Faults.Delay _ -> 3)
  in
  Alcotest.(check (list int)) "same verdict stream" (run ()) (run ())

let test_faults_clean_plan_draws_nothing () =
  (* A clean plan consumes no randomness and never perturbs delivery:
     the same network RNG stream with and without the plan attached
     yields identical delivery times. *)
  let run attach =
    let e = Sim.Engine.create () in
    let rng = Util.Rng.create 42 in
    let net = Sim.Network.create e ~rng ~base_ms:0.2 ~jitter_ms:0.4 ~bandwidth_mbps:80.0 in
    if attach then Sim.Network.set_faults net (Sim.Faults.create ~seed:123 e);
    let times = ref [] in
    for i = 1 to 50 do
      Sim.Network.send net ~src:(i mod 4) ~dst:((i + 1) mod 4) ~size_bytes:(i * 37)
        (fun () -> times := Sim.Engine.now e :: !times)
    done;
    Sim.Engine.run e;
    List.rev !times
  in
  Alcotest.(check (list (float 0.0))) "bit-identical delivery" (run false) (run true)

let test_faults_slowdown_windows () =
  let e = Sim.Engine.create () in
  let f = Sim.Faults.create e in
  Sim.Faults.slow f ~node:3 ~factor:4.0 ~from_ms:10.0 ~until_ms:20.0;
  Sim.Faults.slow f ~node:3 ~factor:2.0 ~from_ms:15.0 ~until_ms:25.0;
  let at t k =
    Sim.Process.spawn e (fun () ->
        Sim.Process.sleep e t;
        k (Sim.Faults.slowdown f ~node:3))
  in
  let s5 = ref 0.0 and s12 = ref 0.0 and s17 = ref 0.0 and s22 = ref 0.0 in
  at 5.0 (fun x -> s5 := x);
  at 12.0 (fun x -> s12 := x);
  at 17.0 (fun x -> s17 := x);
  at 22.0 (fun x -> s22 := x);
  Sim.Engine.run e;
  Alcotest.(check (float 0.0)) "outside windows" 1.0 !s5;
  Alcotest.(check (float 0.0)) "first window" 4.0 !s12;
  Alcotest.(check (float 0.0)) "overlap compounds" 8.0 !s17;
  Alcotest.(check (float 0.0)) "second window" 2.0 !s22;
  Alcotest.(check (float 0.0)) "other nodes unaffected" 1.0
    (Sim.Faults.slowdown f ~node:0)

let test_fork_join_waits_for_all () =
  let e = Sim.Engine.create () in
  let finished = ref [] in
  let joined_at = ref nan in
  Sim.Process.spawn e (fun () ->
      Sim.Fork.join e
        [
          (fun () -> Sim.Process.sleep e 5.0; finished := 5 :: !finished);
          (fun () -> Sim.Process.sleep e 1.0; finished := 1 :: !finished);
          (fun () -> Sim.Process.sleep e 3.0; finished := 3 :: !finished);
        ];
      joined_at := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "children complete in time order" [ 1; 3; 5 ]
    (List.rev !finished);
  Alcotest.(check (float 1e-9)) "join completes at slowest child" 5.0 !joined_at

let test_fork_join_empty_and_singleton () =
  let e = Sim.Engine.create () in
  let ran = ref false in
  let finished_at = ref nan in
  Sim.Process.spawn e (fun () ->
      Sim.Fork.join e [];
      Sim.Fork.join e [ (fun () -> Sim.Process.sleep e 2.0; ran := true) ];
      finished_at := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check bool) "singleton body ran" true !ran;
  Alcotest.(check (float 1e-9)) "empty is free, singleton inline" 2.0 !finished_at

let test_fork_join_resource_contention () =
  (* Four 1ms jobs through a 2-server resource: the join sees 2ms. *)
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create e ~servers:2 in
  let done_at = ref nan in
  Sim.Process.spawn e (fun () ->
      Sim.Fork.join e (List.init 4 (fun _ () -> Sim.Resource.use r ~duration:1.0));
      done_at := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "two at a time" 2.0 !done_at

let test_process_exception_propagates () =
  (* Before the first suspension, and on both resume paths: the engine
     continuing a sleep and a primitive waking a waiter. *)
  let raises name body =
    let e = Sim.Engine.create () in
    Sim.Process.spawn e (fun () ->
        body e;
        failwith "boom");
    Alcotest.check_raises name (Failure "boom") (fun () -> Sim.Engine.run e)
  in
  raises "raise before suspending" ignore;
  raises "raise after a sleep" (fun e -> Sim.Process.sleep e 1.0);
  raises "raise after an Ivar wake" (fun e ->
      let iv = Sim.Ivar.create e in
      Sim.Process.spawn e (fun () ->
          Sim.Process.sleep e 1.0;
          Sim.Ivar.fill iv ());
      Sim.Ivar.read iv)

(* Every primitive wakes its waiters with zero-delay events appended, in
   FIFO order, behind what the instant already holds. The virtual
   digests depend on this interleaving. At t=5 the fill closure runs
   first (queued before the holder's sleep); cond2 needs a second
   broadcast, which the resource's new owner sends. *)
let test_same_instant_wake_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note label = log := label :: !log in
  let iv = Sim.Ivar.create e in
  let c = Sim.Condition.create e in
  let level = ref 0 in
  let r = Sim.Resource.create e ~servers:1 in
  for i = 1 to 3 do
    Sim.Process.spawn e (fun () ->
        Sim.Ivar.read iv;
        note (Printf.sprintf "ivar%d" i))
  done;
  for i = 1 to 3 do
    let needed = if i = 2 then 2 else 1 in
    Sim.Process.spawn e (fun () ->
        Sim.Condition.await c (fun () -> !level >= needed);
        note (Printf.sprintf "cond%d" i))
  done;
  Sim.Process.spawn e (fun () ->
      Sim.Resource.acquire r;
      Sim.Process.sleep e 5.0;
      note "release";
      Sim.Resource.release r);
  Sim.Process.spawn e (fun () ->
      Sim.Resource.acquire r;
      note "acquired";
      level := 2;
      Sim.Condition.broadcast c;
      Sim.Resource.release r);
  Sim.Engine.schedule e ~delay:5.0 (fun () ->
      note "fill";
      Sim.Ivar.fill iv ();
      Sim.Engine.schedule e ~delay:0.0 (fun () -> note "call");
      level := 1;
      Sim.Condition.broadcast c);
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "wake order"
    [ "fill"; "release"; "ivar1"; "ivar2"; "ivar3"; "call"; "cond1"; "cond3"; "acquired"; "cond2" ]
    (List.rev !log);
  Alcotest.(check (float 0.)) "one instant" 5.0 (Sim.Engine.now e)

(* A parked process is a bare continuation in the event queue or in a
   primitive's waiter queue: no closure per sleep or wait. Each pin is
   the minor-heap words per operation over 10k operations of [Engine.run],
   including the sleep that drives the loop. The bounds leave headroom
   above the measured 6, 15, 24 and 18 words and sit well below the 24,
   54, 81 and 62 words a closure per suspension cost. *)
let ops = 10_000

let words_per_op setup =
  let e = Sim.Engine.create () in
  setup e;
  let before = Gc.minor_words () in
  Sim.Engine.run e;
  (Gc.minor_words () -. before) /. float_of_int ops

let test_suspension_allocation () =
  let pin name bound setup =
    let words = words_per_op setup in
    Alcotest.(check bool) (Printf.sprintf "%s: %.1f words/op <= %.0f" name words bound) true
      (words <= bound)
  in
  pin "sleep" 10.0 (fun e ->
      Sim.Process.spawn e (fun () ->
          for _ = 1 to ops do
            Sim.Process.sleep e 1.0
          done));
  pin "contended Resource.use" 26.0 (fun e ->
      let r = Sim.Resource.create e ~servers:1 in
      for _ = 1 to 2 do
        Sim.Process.spawn e (fun () ->
            for _ = 1 to ops / 2 do
              Sim.Resource.use r ~duration:1.0
            done)
      done);
  pin "Ivar create + blocked read" 40.0 (fun e ->
      let current = ref (Sim.Ivar.create e) in
      Sim.Process.spawn e (fun () ->
          for _ = 1 to ops do
            let iv = Sim.Ivar.create e in
            current := iv;
            Sim.Ivar.read iv
          done);
      Sim.Process.spawn e (fun () ->
          for _ = 1 to ops do
            Sim.Process.sleep e 1.0;
            Sim.Ivar.fill !current ()
          done));
  pin "Condition.await" 34.0 (fun e ->
      let c = Sim.Condition.create e in
      let count = ref 0 in
      Sim.Process.spawn e (fun () ->
          for i = 1 to ops do
            Sim.Condition.await c (fun () -> !count >= i)
          done);
      Sim.Process.spawn e (fun () ->
          for _ = 1 to ops do
            Sim.Process.sleep e 1.0;
            incr count;
            Sim.Condition.broadcast c
          done))

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time ordering" `Quick test_engine_time_ordering;
        Alcotest.test_case "same-time FIFO" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "run until a past horizon" `Quick test_engine_until_past;
        Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
        Alcotest.test_case "NaN times rejected" `Quick test_engine_nan_times;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_engine_matches_model ] );
    ( "sim.process",
      [
        Alcotest.test_case "sleep" `Quick test_process_sleep;
        Alcotest.test_case "periodic process" `Quick test_process_every;
        Alcotest.test_case "exception propagates" `Quick test_process_exception_propagates;
        Alcotest.test_case "same-instant wake order" `Quick test_same_instant_wake_order;
        Alcotest.test_case "suspension allocation" `Quick test_suspension_allocation;
      ] );
    ( "sim.ivar",
      [
        Alcotest.test_case "fill wakes readers" `Quick test_ivar;
        Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
      ] );
    ( "sim.resource",
      [
        Alcotest.test_case "mutual exclusion" `Quick test_resource_mutual_exclusion;
        Alcotest.test_case "parallel servers" `Quick test_resource_parallel_servers;
        Alcotest.test_case "no handoff steal" `Quick test_resource_no_handoff_steal;
        Alcotest.test_case "utilization" `Quick test_resource_utilization;
        Alcotest.test_case "queue length" `Quick test_resource_queue_length;
        Alcotest.test_case "reset utilization window" `Quick
          test_resource_reset_utilization_window;
        Alcotest.test_case "multi-server FIFO wakeup" `Quick
          test_resource_multi_server_fifo_wakeup;
      ] );
    ( "sim.condition",
      [
        Alcotest.test_case "await predicate" `Quick test_condition_await;
        Alcotest.test_case "immediate when true" `Quick test_condition_immediate;
      ] );
    ( "sim.fork",
      [
        Alcotest.test_case "join waits for all" `Quick test_fork_join_waits_for_all;
        Alcotest.test_case "empty and singleton" `Quick test_fork_join_empty_and_singleton;
        Alcotest.test_case "resource contention" `Quick test_fork_join_resource_contention;
      ] );
    ( "sim.network",
      [
        Alcotest.test_case "latency model" `Quick test_network_latency_positive;
        Alcotest.test_case "latency formula" `Quick test_network_latency_formula;
        Alcotest.test_case "determinism + accounting" `Quick test_network_determinism;
        Alcotest.test_case "drop path" `Quick test_network_drop_path;
        Alcotest.test_case "duplicate path" `Quick test_network_duplicate_path;
        Alcotest.test_case "partition window" `Quick test_network_partition_window;
        Alcotest.test_case "asymmetric partition" `Quick test_network_asymmetric_partition;
        Alcotest.test_case "partition ignores untagged" `Quick
          test_network_partition_ignores_untagged;
        Alcotest.test_case "transfer persists" `Quick test_network_transfer_persists;
        Alcotest.test_case "transfer_bounded gives up" `Quick
          test_network_transfer_bounded_gives_up;
      ] );
    ( "sim.faults",
      [
        Alcotest.test_case "verdict determinism" `Quick test_faults_determinism;
        Alcotest.test_case "clean plan draws nothing" `Quick
          test_faults_clean_plan_draws_nothing;
        Alcotest.test_case "slowdown windows" `Quick test_faults_slowdown_windows;
      ] );
  ]
