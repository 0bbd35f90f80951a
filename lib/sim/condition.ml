type t = { engine : Engine.t; waiters : Engine.waiters }

let create engine = { engine; waiters = Queue.create () }

let rec await t pred =
  if not (pred ()) then begin
    Process.wait t.engine t.waiters;
    await t pred
  end

(* Woken processes re-await only when their event runs, after this
   loop: a broadcast wakes exactly the processes waiting when it began. *)
let broadcast t =
  while not (Queue.is_empty t.waiters) do
    Engine.wake t.engine (Queue.take t.waiters)
  done

let waiters t = Queue.length t.waiters
