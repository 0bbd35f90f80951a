(* Processes are one-shot delimited continuations. Every blocking
   primitive states where it parks in the engine ([Engine.request_sleep]
   or [Engine.request_wait]) and then performs the one constant [Park]
   effect; the handler hands the bare continuation to [Engine.park]. No
   closure is allocated per suspension. *)

open Effect
open Effect.Deep

type _ Effect.t += Park : unit Effect.t

let spawn engine body =
  (* Built once per process. The [Park] branch refines [a = unit], so
     the one preallocated [Some park] answers every suspension. *)
  let park = Some (Engine.park engine) in
  let handler =
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          (* Surface the failing process's own backtrace: the engine's
             re-raise would otherwise mask where the exception arose. *)
          if Printexc.backtrace_status () then
            Printf.eprintf "simulation process died: %s\n%s%!" (Printexc.to_string e)
              (Printexc.get_backtrace ());
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park -> (park : ((a, unit) continuation -> unit) option)
          | _ -> None);
    }
  in
  Engine.schedule engine ~delay:0.0 (fun () -> match_with body () handler)

let sleep engine duration =
  Engine.request_sleep engine duration;
  perform Park

let wait engine waiters =
  Engine.request_wait engine waiters;
  perform Park

let every engine ~period f =
  spawn engine (fun () ->
      let rec loop () =
        sleep engine period;
        f ();
        loop ()
      in
      loop ())
