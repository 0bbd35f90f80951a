(* Simulation drivers shared by the test suites. A cluster never goes
   idle: its replicas heartbeat, and its failure detector and refresh
   repair tick, for as long as it exists. So is a certifier group with
   standbys, whose members heartbeat each other. [Sim.Engine.run]
   without a horizon never returns on either; these drivers stop. *)

(* Runs [body] as a process, and the engine until it returns, in bounded
   [run ~until] slices. *)
let run_process engine body =
  let finished = ref false in
  Sim.Process.spawn engine (fun () ->
      body ();
      finished := true);
  while not !finished do
    if Sim.Engine.now engine > 600_000.0 then
      Alcotest.fail "test process still running after 600 s of virtual time";
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 1_000.0) engine
  done

(* Runs the engine one virtual second past now: enough for a handful of
   transactions, spawned before, to finish and their refreshes to reach
   every replica. *)
let settle engine = Sim.Engine.run engine ~until:(Sim.Engine.now engine +. 1_000.0)

(* Whether two writesets write a common record, judged from their
   entries under the store's own key equality rather than from conflict
   ids: the oracle that id-based conflict probes are checked against. *)
let write_common_record a b =
  let same x y =
    String.equal x.Storage.Writeset.ws_table y.Storage.Writeset.ws_table
    && Storage.Mvcc.Key_hashed.equal x.ws_key y.ws_key
  in
  let theirs = Storage.Writeset.entries b in
  List.exists (fun x -> List.exists (same x) theirs) (Storage.Writeset.entries a)
