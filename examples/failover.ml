(* Crash-recovery walkthrough: a replica fails under load, the cluster
   keeps serving clients, and the replica replays the certifier log on
   recovery. Exits 1 if the run log shows a strong-consistency
   violation.

   Run with: dune exec examples/failover.exe *)

let params = { Workload.Microbench.tables = 8; rows = 1_000; update_types = 4 }

let config =
  {
    Core.Config.default with
    replicas = 4;
    seed = 5;
    record_log = true;
    gc_interval_ms = 0.0;
  }

let () =
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Coarse
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:20 ~first_sid:0 (Workload.Microbench.workload params);
  let snapshot label =
    Printf.printf "%6.0f ms  %-18s" (Sim.Engine.now engine) label;
    for i = 0 to 3 do
      let r = Core.Cluster.replica cluster i in
      Printf.printf "  r%d: v%-6d%s" i (Core.Replica.v_local r)
        (if Core.Replica.is_crashed r then " (down)" else "")
    done;
    Printf.printf "  certified: v%d\n%!"
      (Core.Certifier.version (Core.Cluster.certifier cluster))
  in
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 1_000.0;
      snapshot "steady state";
      Core.Cluster.crash_replica cluster 3;
      snapshot "replica 3 crashes";
      Sim.Process.sleep engine 2_000.0;
      snapshot "2s of outage";
      Core.Cluster.recover_replica cluster 3;
      snapshot "recovery starts";
      Sim.Process.sleep engine 500.0;
      snapshot "after 500ms";
      Sim.Process.sleep engine 1_500.0;
      snapshot "after 2s");
  Core.Cluster.run_for cluster ~warmup_ms:500.0 ~measure_ms:5_000.0;
  let m = Core.Cluster.metrics cluster in
  Printf.printf "\nthroughput across the failure: %.0f TPS, aborts %.2f%%\n"
    (Core.Metrics.throughput_tps m)
    (100.0 *. Core.Metrics.abort_rate m);
  let log = Core.Cluster.records cluster in
  let violations = List.length (Check.Runlog.strong_consistency log) in
  Printf.printf "strong-consistency violations across crash+recovery: %d (of %d txns)\n"
    violations (List.length log);
  if violations > 0 then exit 1
