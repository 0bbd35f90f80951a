type 'a state =
  | Empty of Engine.waiters
  | Filled of 'a

type 'a t = { engine : Engine.t; mutable state : 'a state }

let create engine = { engine; state = Empty (Queue.create ()) }

let fill t value =
  match t.state with
  | Filled _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
    t.state <- Filled value;
    while not (Queue.is_empty waiters) do
      Engine.wake t.engine (Queue.take waiters)
    done

let read t =
  match t.state with
  | Filled value -> value
  | Empty waiters -> (
    Process.wait t.engine waiters;
    (* Woken only by [fill]. *)
    match t.state with
    | Filled value -> value
    | Empty _ -> assert false)

let is_filled t = match t.state with Filled _ -> true | Empty _ -> false

let peek t = match t.state with Filled v -> Some v | Empty _ -> None
