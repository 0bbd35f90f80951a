(* Every case runs under a wall-clock timer; the ten slowest are printed
   after Alcotest's summary, so the test log shows where the suite's time
   goes. *)
let timings = ref []

let timed suite (name, speed, fn) =
  let fn () =
    let start = Unix.gettimeofday () in
    Fun.protect fn ~finally:(fun () ->
        timings := (suite, name, 1000. *. (Unix.gettimeofday () -. start)) :: !timings)
  in
  (name, speed, fn)

(* Alcotest exits from [run]; this prints from [at_exit], after its
   buffered summary is flushed. *)
let print_slowest () =
  let slowest = List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a) !timings in
  if slowest <> [] then begin
    Format.pp_print_flush Format.std_formatter ();
    print_endline "Ten slowest tests:";
    List.iteri
      (fun rank (suite, name, ms) ->
        if rank < 10 then Printf.printf "  %9.1f ms  %s  %s\n" ms suite name)
      slowest
  end

let () =
  at_exit print_slowest;
  Alcotest.run "repro"
    (List.map
       (fun (suite, cases) -> (suite, List.map (timed suite) cases))
       (Test_util.suites @ Test_sim.suites @ Test_obs.suites @ Test_storage.suites
      @ Test_check.suites @ Test_core.suites @ Test_batching.suites @ Test_certindex.suites
      @ Test_workload.suites
      @ Test_consistency.suites @ Test_tiers.suites @ Test_faults.suites @ Test_certha.suites @ Test_controlplane.suites
      @ Test_overload.suites
      @ Test_experiments.suites))
