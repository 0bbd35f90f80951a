(* Crash-recovery tests (the paper's fault-tolerance model, §IV). *)

let params = { Workload.Microbench.tables = 4; rows = 100; update_types = 4 }

let config =
  {
    Core.Config.default with
    replicas = 3;
    seed = 77;
    record_log = true;
    gc_interval_ms = 0.0;
    hiccup_interval_ms = 0.0;
  }

let make_cluster mode =
  Core.Cluster.create ~config ~mode
    ~schemas:(Workload.Microbench.schemas params)
    ~load:(Workload.Microbench.load params)
    ()

(* All replicas hold identical data: their content fingerprints agree
   at the lowest [V_local] among them (the closed loop never drains, so
   the tail beyond it may still be in flight). Returns that version. *)
let check_converged cluster =
  let n = (Core.Cluster.config cluster).Core.Config.replicas in
  let db i = Core.Replica.database (Core.Cluster.replica cluster i) in
  let min_v = ref max_int in
  for i = 0 to n - 1 do
    min_v := min !min_v (Storage.Database.version (db i))
  done;
  let reference = Storage.Database.fingerprint (db 0) ~at:!min_v in
  for i = 1 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d converged at v%d" i !min_v)
      reference
      (Storage.Database.fingerprint (db i) ~at:!min_v)
  done;
  !min_v

let test_crash_then_recover_catches_up () =
  let cluster = make_cluster Core.Consistency.Coarse in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  (* Crash replica 2 at t=500ms, recover at t=1500ms. *)
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 500.0;
      Core.Cluster.crash_replica cluster 2;
      Sim.Process.sleep engine 1_000.0;
      Core.Cluster.recover_replica cluster 2);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:3_000.0;
  (* After the run, the recovered replica must have caught up with the
     certifier's history (allowing only for in-flight tail). *)
  let certified = Core.Certifier.version (Core.Cluster.certifier cluster) in
  let recovered = Core.Replica.v_local (Core.Cluster.replica cluster 2) in
  Alcotest.(check bool)
    (Printf.sprintf "recovered replica caught up (v_local %d, certified %d)" recovered
       certified)
    true
    (certified - recovered < 20);
  Alcotest.(check bool) "progress was made" true (certified > 100);
  Alcotest.(check bool) "replica is live again" true
    (not (Core.Replica.is_crashed (Core.Cluster.replica cluster 2)))

let test_crash_preserves_strong_consistency () =
  let cluster = make_cluster Core.Consistency.Coarse in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 600.0;
      Core.Cluster.crash_replica cluster 1;
      Sim.Process.sleep engine 800.0;
      Core.Cluster.recover_replica cluster 1);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:3_000.0;
  let log = Core.Cluster.records cluster in
  Alcotest.(check bool) "committed through the failure" true (List.length log > 100);
  (match Check.Runlog.strong_consistency log with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "strong consistency violated across crash: %s"
      (Format.asprintf "%a" Check.Runlog.pp_violation v));
  match Check.Runlog.first_committer_wins log with
  | [] -> ()
  | _ -> Alcotest.fail "write-write conflict slipped through during failure"

let test_crash_during_eager_does_not_wedge () =
  (* The certifier drops a crashed replica from the eager ack set, so
     commits keep completing. *)
  let cluster = make_cluster Core.Consistency.Eager in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 500.0;
      Core.Cluster.crash_replica cluster 0);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:2_000.0;
  let metrics = Core.Cluster.metrics cluster in
  Alcotest.(check bool) "eager cluster kept committing" true
    (Core.Metrics.committed metrics > 100)

let test_client_requests_survive_crash () =
  (* Transactions in flight on the crashed replica abort; clients retry
     and eventually succeed on the survivors. *)
  let cluster = make_cluster Core.Consistency.Session in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 500.0;
      Core.Cluster.crash_replica cluster 2);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:2_000.0;
  let metrics = Core.Cluster.metrics cluster in
  Alcotest.(check bool) "throughput continued" true (Core.Metrics.committed metrics > 100);
  Alcotest.(check int) "no client gave up" 0 (Core.Metrics.retry_exhausted metrics)

let test_recovery_replays_missed_writesets () =
  (* Direct unit check of the replay path: commit a known update while a
     replica is down, recover, and read the value there. *)
  let cluster = make_cluster Core.Consistency.Coarse in
  let engine = Core.Cluster.engine cluster in
  let update =
    Core.Transaction.make ~profile:"upd"
      [
        Storage.Query.Update_key
          {
            table = "t00";
            key = [| Storage.Value.Int 5 |];
            set = [ ("val", Storage.Expr.i 4242) ];
          };
      ]
  in
  Sim.Process.spawn engine (fun () ->
      Core.Cluster.crash_replica cluster 2;
      (match Core.Cluster.submit cluster ~sid:0 update with
      | Core.Transaction.Committed _ -> ()
      | Core.Transaction.Aborted _ -> Alcotest.fail "update aborted");
      Core.Cluster.recover_replica cluster 2);
  Helpers.settle engine;
  let db = Core.Replica.database (Core.Cluster.replica cluster 2) in
  Alcotest.(check int) "replica 2 replayed the missed commit" 1
    (Storage.Database.version db);
  match
    Storage.Table.read (Storage.Database.table db "t00") ~key:[| Storage.Value.Int 5 |]
      ~at:1
  with
  | Some row -> Alcotest.(check int) "value replayed" 4242 (Storage.Value.as_int row.(1))
  | None -> Alcotest.fail "row missing after replay"

let test_state_transfer_after_log_prune () =
  (* Crash a replica, let the cluster run long past the certifier's
     pruned log horizon, then recover: recovery must fall back to a
     state transfer and still converge. *)
  let config =
    { config with Core.Config.gc_interval_ms = 200.0; gc_window = 50 }
  in
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Coarse
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 300.0;
      Core.Cluster.crash_replica cluster 2;
      Sim.Process.sleep engine 2_000.0;
      (* By now the log horizon is far beyond replica 2's version. *)
      let certifier = Core.Cluster.certifier cluster in
      let stale = Core.Replica.v_local (Core.Cluster.replica cluster 2) in
      Alcotest.(check bool) "log was pruned past the outage" true
        (Core.Certifier.log_base certifier > stale);
      Alcotest.(check bool) "log replay unavailable" true
        (Core.Certifier.writesets_from certifier stale = None);
      Core.Cluster.recover_replica cluster 2;
      (* The copy is the donor's state: at once, before any replay. *)
      ignore (check_converged cluster));
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:4_000.0;
  let r2 = Core.Cluster.replica cluster 2 in
  Alcotest.(check bool) "replica 2 live" true (not (Core.Replica.is_crashed r2));
  let certified = Core.Certifier.version (Core.Cluster.certifier cluster) in
  Alcotest.(check bool)
    (Printf.sprintf "caught up after state transfer (v%d of v%d)"
       (Core.Replica.v_local r2) certified)
    true
    (certified - Core.Replica.v_local r2 < 20);
  ignore (check_converged cluster)

let test_certifier_failover () =
  (* Crash the certifier primary under load; update transactions stall
     until the standby failure detectors promote a standby, which takes
     over with no lost decisions, and strong consistency holds across
     the failover. *)
  let config = Core.Config.hardened { config with Core.Config.certifier_standbys = 2 } in
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Coarse
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  let version_at_crash = ref 0 in
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 500.0;
      version_at_crash := Core.Certifier.version (Core.Cluster.certifier cluster);
      Core.Cluster.crash_certifier cluster;
      (* Only certifications already in flight at the crash may still be
         decided (at most one per client); new requests must queue. The
         last sample before the promotion covers the whole outage. *)
      let certifier = Core.Cluster.certifier cluster in
      let during = ref !version_at_crash in
      while Core.Certifier.is_crashed certifier do
        during := Core.Certifier.version certifier;
        Sim.Process.sleep engine 1.0
      done;
      Alcotest.(check bool)
        (Printf.sprintf "only in-flight decisions during outage (%d -> %d)"
           !version_at_crash !during)
        true
        (!during - !version_at_crash <= 10));
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:3_000.0;
  let certifier = Core.Cluster.certifier cluster in
  Alcotest.(check int) "one failover" 1 (Core.Certifier.promotions certifier);
  Alcotest.(check bool) "commits resumed after failover" true
    (Core.Certifier.version certifier > !version_at_crash + 100);
  let log = Core.Cluster.records cluster in
  Alcotest.(check int) "strong consistency across certifier failover" 0
    (List.length (Check.Runlog.strong_consistency log));
  Alcotest.(check int) "no write-write conflicts slipped through" 0
    (List.length (Check.Runlog.first_committer_wins log))

let test_certifier_crash_requires_standby () =
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Coarse
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  Alcotest.(check bool) "crash without standby rejected" true
    (try
       Core.Cluster.crash_certifier cluster;
       false
     with Invalid_argument _ -> true)

let test_replicas_converge_to_same_state () =
  (* After a loaded run drains, all replicas must hold identical data:
     compare content fingerprints at the lowest common version. *)
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Session
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:2_000.0;
  Alcotest.(check bool) "made progress" true (check_converged cluster > 100)

(* --- hardened protocol under injected network faults ------------- *)

let hardened_config = Core.Config.hardened config

let test_detector_transitions () =
  (* Pure failure-detector state machine: Alive -> Suspect -> Dead on
     silence, back to Alive on any contact. *)
  let lb = Core.Load_balancer.create hardened_config ~mode:Core.Consistency.Coarse in
  let check_health msg expected =
    let show = function
      | Core.Load_balancer.Alive -> "alive"
      | Core.Load_balancer.Suspect -> "suspect"
      | Core.Load_balancer.Dead -> "dead"
    in
    Alcotest.(check string) msg (show expected) (show (Core.Load_balancer.health lb ~replica:0))
  in
  (* Keep the other replicas chatty so every event below is replica 0's. *)
  let keep_others_alive now =
    for r = 1 to config.Core.Config.replicas - 1 do
      Core.Load_balancer.note_contact lb ~replica:r ~now
    done
  in
  check_health "starts alive" Core.Load_balancer.Alive;
  Core.Load_balancer.note_contact lb ~replica:0 ~now:100.0;
  keep_others_alive 150.0;
  Core.Load_balancer.sweep lb ~now:150.0;
  check_health "recent contact keeps it alive" Core.Load_balancer.Alive;
  (* Load_balancer.suspect_after_ms = 80, dead_after_ms = 400 *)
  keep_others_alive 200.0;
  Core.Load_balancer.sweep lb ~now:200.0;
  check_health "80ms of silence suspects" Core.Load_balancer.Suspect;
  Alcotest.(check int) "suspect event counted" 1 (Core.Load_balancer.suspect_events lb);
  keep_others_alive 250.0;
  Core.Load_balancer.sweep lb ~now:250.0;
  Alcotest.(check int) "no double count while already suspect" 1
    (Core.Load_balancer.suspect_events lb);
  Core.Load_balancer.note_contact lb ~replica:0 ~now:260.0;
  check_health "contact un-suspects" Core.Load_balancer.Alive;
  keep_others_alive 700.0;
  Core.Load_balancer.sweep lb ~now:700.0;
  check_health "400ms of silence kills" Core.Load_balancer.Dead;
  Alcotest.(check int) "failover event counted" 1 (Core.Load_balancer.failover_events lb);
  Core.Load_balancer.note_contact lb ~replica:0 ~now:710.0;
  check_health "contact resurrects even from dead" Core.Load_balancer.Alive

let test_detector_routes_around_suspects () =
  let lb = Core.Load_balancer.create hardened_config ~mode:Core.Consistency.Coarse in
  (* Silence replica 0 into Suspect (90ms quiet: past suspect_after_ms
     but well short of dead_after_ms); keep the others chatty. *)
  Core.Load_balancer.note_contact lb ~replica:0 ~now:410.0;
  Core.Load_balancer.note_contact lb ~replica:1 ~now:500.0;
  Core.Load_balancer.note_contact lb ~replica:2 ~now:500.0;
  Core.Load_balancer.sweep lb ~now:500.0;
  Alcotest.(check bool) "replica 0 suspect" true
    (Core.Load_balancer.health lb ~replica:0 = Core.Load_balancer.Suspect);
  for sid = 0 to 19 do
    let r = Core.Load_balancer.choose_replica lb ~sid in
    Alcotest.(check bool) "suspect not routed while alives exist" true (r <> 0);
    Core.Load_balancer.note_dispatch lb ~replica:r
  done;
  (* With every replica suspect, routing falls back to the suspects
     rather than failing. *)
  Core.Load_balancer.sweep lb ~now:2_000.0;
  let r = Core.Load_balancer.choose_replica lb ~sid:0 in
  Alcotest.(check bool) "suspect routable as fallback" true (r >= 0 && r < 3)

let run_hardened ?(config = hardened_config) ?(measure_ms = 2_000.0) ~plan mode =
  let cluster =
    Core.Cluster.create ~config
      ~faults:(fun e -> plan e)
      ~mode
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:0.0 ~measure_ms;
  cluster

let test_lossy_refresh_repair_and_dedup () =
  (* An extremely lossy, duplicating certifier->replica link: refresh
     batches are dropped and delivered twice; repair must fill the gaps,
     dedup must ignore the copies, and all replicas must converge to
     identical contents. *)
  let plan e =
    let f = Sim.Faults.create ~seed:4 e in
    Sim.Faults.set_link f ~src:Core.Config.node_certifier ~dst:Sim.Faults.any
      (Sim.Faults.spec ~drop:0.3 ~duplicate:0.2 ());
    f
  in
  let cluster = run_hardened ~plan Core.Consistency.Session in
  let metrics = Core.Cluster.metrics cluster in
  Alcotest.(check bool) "faults actually fired" true
    (Core.Metrics.total metrics "fault.drops" > 50
    && Core.Metrics.total metrics "fault.duplicates" > 20);
  Alcotest.(check bool) "repair retransmitted" true (Core.Metrics.retransmits metrics > 0);
  Alcotest.(check bool) "throughput survived" true
    (Core.Metrics.committed metrics > 100);
  (* Drain with the link still lossy: repair alone must converge the
     replicas, then contents must be identical at the common version. *)
  let engine = Core.Cluster.engine cluster in
  let certified = Core.Certifier.version (Core.Cluster.certifier cluster) in
  Sim.Engine.run engine ~until:(Sim.Engine.now engine +. 1_000.0);
  let min_v = ref max_int in
  for i = 0 to 2 do
    let v = Core.Replica.v_local (Core.Cluster.replica cluster i) in
    Alcotest.(check bool)
      (Printf.sprintf "replica %d passed pre-drain certified version (v%d of v%d)" i v
         certified)
      true (v >= certified);
    min_v := min !min_v v
  done;
  let reference =
    Storage.Database.fingerprint
      (Core.Replica.database (Core.Cluster.replica cluster 0))
      ~at:!min_v
  in
  for i = 1 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d converged" i)
      reference
      (Storage.Database.fingerprint
         (Core.Replica.database (Core.Cluster.replica cluster i))
         ~at:!min_v)
  done

let test_partition_suspects_then_recovers () =
  (* Cut replica 2 off mid-run: the detector must suspect (and at this
     length, kill) it, traffic must keep flowing, and after the heal the
     replica must rejoin and catch up without manual intervention. *)
  let plan e =
    let f = Sim.Faults.create ~seed:9 e in
    Sim.Faults.partition f ~a:[ 2 ] ~b:[] ~from_ms:500.0 ~until_ms:1_300.0 ();
    f
  in
  let cluster = run_hardened ~plan ~measure_ms:2_500.0 Core.Consistency.Coarse in
  let metrics = Core.Cluster.metrics cluster in
  Alcotest.(check bool) "partitioned replica was suspected" true
    (Core.Metrics.total metrics "detector.suspect" >= 1);
  Alcotest.(check bool) "declared dead (800ms > dead_after)" true
    (Core.Metrics.total metrics "detector.dead" >= 1);
  Alcotest.(check bool) "cluster kept committing" true
    (Core.Metrics.committed metrics > 200);
  Alcotest.(check int) "no client gave up" 0 (Core.Metrics.retry_exhausted metrics);
  (* After the heal + drain the replica is back in the certifier's live
     set and caught up. *)
  let certified = Core.Certifier.version (Core.Cluster.certifier cluster) in
  let v2 = Core.Replica.v_local (Core.Cluster.replica cluster 2) in
  Alcotest.(check bool)
    (Printf.sprintf "rejoined and caught up (v%d of v%d)" v2 certified)
    true
    (certified - v2 < 50);
  Alcotest.(check bool) "marked live at the certifier again" true
    (Core.Certifier.is_marked_live (Core.Cluster.certifier cluster) ~replica:2)

let test_eviction_unblocks_gc_and_forces_state_transfer () =
  (* A replica that stays dead past evict_after_ms loses its watermark
     entry: the certifier's log GC advances past it, and its eventual
     rejoin is forced through state transfer. *)
  let config =
    {
      hardened_config with
      Core.Config.gc_interval_ms = 100.0;
      gc_window = 50;
      watermark_slack = 50;
      evict_after_ms = 600.0;
    }
  in
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Coarse
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 300.0;
      Core.Cluster.crash_replica cluster 2;
      Sim.Process.sleep engine 1_200.0;
      (* Well past evict_after: the corpse must be out of the watermark
         table and the log pruned beyond its applied version. *)
      let certifier = Core.Cluster.certifier cluster in
      Alcotest.(check bool) "evicted" true (Core.Certifier.evictions certifier >= 1);
      Alcotest.(check bool) "flagged for state transfer" true
        (Core.Certifier.needs_state_transfer certifier ~replica:2);
      Alcotest.(check bool) "log GC advanced past the corpse" true
        (Core.Certifier.log_base certifier
        > Core.Replica.v_local (Core.Cluster.replica cluster 2));
      Core.Cluster.recover_replica cluster 2;
      ignore (check_converged cluster));
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:3_000.0;
  let r2 = Core.Cluster.replica cluster 2 in
  Alcotest.(check bool) "rejoined" true (not (Core.Replica.is_crashed r2));
  let certified = Core.Certifier.version (Core.Cluster.certifier cluster) in
  Alcotest.(check bool)
    (Printf.sprintf "caught up after forced state transfer (v%d of v%d)"
       (Core.Replica.v_local r2) certified)
    true
    (certified - Core.Replica.v_local r2 < 50);
  ignore (check_converged cluster)

let test_backoff_defaults_off_and_works_when_on () =
  Alcotest.(check (float 0.0)) "default backoff base is 0" 0.0
    Core.Config.default.Core.Config.retry_backoff_ms;
  (* With backoff on and a conflict-heavy workload, clients still make
     progress and the run completes (the backoff sleeps draw from the
     client's own RNG stream only). *)
  let config = { config with Core.Config.retry_backoff_ms = 1.0; retry_backoff_max_ms = 16.0 } in
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Coarse
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:1_000.0;
  Alcotest.(check bool) "committed with backoff enabled" true
    (Core.Metrics.committed (Core.Cluster.metrics cluster) > 100)

(* A replica that is busy applying a backlog still holds it, so on a
   clean network the certifier's refresh repair never fires and no leg
   retransmits. The default config keeps the replica hiccups that make
   replicas lag. *)
let test_fault_free_run_retransmits_nothing () =
  List.iter
    (fun mode ->
      let config = { Core.Config.default with replicas = 4; seed = 11 } in
      let cluster =
        Core.Cluster.create ~config ~mode
          ~schemas:(Workload.Microbench.schemas params)
          ~load:(Workload.Microbench.load params)
          ()
      in
      Core.Client.spawn_many cluster ~n:40 ~first_sid:0 (Workload.Microbench.workload params);
      Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:2_000.0;
      let total name =
        (List.find (fun p -> p.Core.Cluster.name = name) (Core.Cluster.probes cluster))
          .Core.Cluster.read ()
      in
      let label = Core.Consistency.to_string mode in
      Alcotest.(check bool) (label ^ ": transactions committed") true
        (Core.Metrics.committed (Core.Cluster.metrics cluster) > 1_000);
      List.iter
        (fun name -> Alcotest.(check (float 0.0)) (label ^ ": " ^ name) 0.0 (total name))
        [ "certifier.retransmits"; "net.retransmits" ])
    Core.Consistency.all

let test_abort_reason_breakdown () =
  (* Unit-level: the per-reason abort table sorts by count and renders
     in the summary, and a registered total counts only what its source
     gained since the window opened. *)
  let e = Sim.Engine.create () in
  let m = Core.Metrics.create e in
  let retransmits = ref 3 in
  Core.Metrics.add_total m "net.retransmits" (fun () -> !retransmits);
  Core.Metrics.add_total m "fault.drops" (fun () -> 0);
  retransmits := 5;
  Core.Metrics.reset_window m;
  for _ = 1 to 3 do Core.Metrics.record_abort ~slug:"certification" m done;
  Core.Metrics.record_abort ~slug:"timeout" m;
  Core.Metrics.record_abort m;
  Alcotest.(check (list (pair string int)))
    "sorted by count desc"
    [ ("certification", 3); ("timeout", 1) ]
    (Core.Metrics.aborts_by_reason m);
  Alcotest.(check int) "unslugged still counted in total" 5 (Core.Metrics.aborted m);
  retransmits := 12;
  Alcotest.(check (list (pair string int)))
    "window totals in registration order"
    [ ("net.retransmits", 7); ("fault.drops", 0) ]
    (Core.Metrics.totals m);
  Alcotest.(check int) "retransmits read the window total" 7 (Core.Metrics.retransmits m);
  Alcotest.(check int) "unregistered total reads 0" 0 (Core.Metrics.total m "fault.delays");
  let rendered = Format.asprintf "%a" Core.Metrics.pp_summary m in
  let contains sub =
    let n = String.length rendered and k = String.length sub in
    let rec at i = i + k <= n && (String.sub rendered i k = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "summary lists abort reasons" true (contains "certification=3");
  Core.Metrics.reset_window m;
  Alcotest.(check int) "reset rebases the total" 0 (Core.Metrics.retransmits m)

(* --- commit_local vs in-flight refresh apply ------------------------

   The certifier's repair resend can deliver version [v] as a refresh
   while the same transaction's decision leg is still in flight. If the
   decision lands in the window where the sequencer has already dequeued
   the refresh slot for [v] but not yet advanced V_local (mid-apply),
   commit_local inserts a Local slot at a version the sequencer will
   never revisit; it must be settled at publication or the submitter
   blocks on its ivar forever. *)

let make_replica_db () =
  let db = Storage.Database.create () in
  List.iter
    (fun s -> ignore (Storage.Database.create_table db s))
    (Workload.Microbench.schemas params);
  Workload.Microbench.load params db;
  db

let race_ws key =
  Storage.Writeset.of_entries
    [
      {
        Storage.Writeset.ws_table = "t00";
        ws_key = [| Storage.Value.Int key |];
        ws_op =
          Storage.Writeset.Put
            [| Storage.Value.Int key; Storage.Value.Int 0; Storage.Value.Text "" |];
      };
    ]

let check_settled ~what = function
  | None -> Alcotest.failf "%s: commit_local never ran" what
  | Some ivar -> (
    match Sim.Ivar.peek ivar with
    | Some (Ok _) -> ()
    | Some (Error _) -> Alcotest.failf "%s: raced commit reported an abort" what
    | None -> Alcotest.failf "%s: raced commit wedged (ivar never filled)" what)

(* A started replica with deterministic service times and
   [apply_parallelism = p]. *)
let race_replica engine ~p =
  let cfg = { config with Core.Config.service_jitter = false; apply_parallelism = p } in
  let replica =
    Core.Replica.create engine cfg ~rng:(Util.Rng.create 3) ~id:0 (make_replica_db ())
  in
  Core.Replica.start replica;
  replica

let test_commit_local_races_single_apply () =
  let engine = Sim.Engine.create () in
  let replica = race_replica engine ~p:1 in
  let ws = race_ws 1 in
  let ivar = ref None in
  Sim.Process.spawn engine (fun () ->
      (* The repair resend delivers v1; the sequencer dequeues it at t=0
         and spends ws_apply_base_ms + ws_apply_row_ms (0.12ms) applying. *)
      Core.Replica.receive_refresh replica ~version:1 ~ws;
      (* The decision leg lands strictly inside that window. *)
      Sim.Process.sleep engine 0.05;
      ivar := Some (Core.Replica.commit_local replica ~version:1 ~ws));
  Sim.Engine.run engine;
  Alcotest.(check int) "v1 applied" 1 (Core.Replica.v_local replica);
  check_settled ~what:"p=1" !ivar

let test_commit_local_races_group_apply () =
  let engine = Sim.Engine.create () in
  let replica = race_replica engine ~p:2 in
  let ws1 = race_ws 1 and ws2 = race_ws 2 in
  let ivar = ref None in
  Sim.Process.spawn engine (fun () ->
      (* Two disjoint writesets drain as one parallel apply group. *)
      Core.Replica.receive_refresh replica ~version:1 ~ws:ws1;
      Core.Replica.receive_refresh replica ~version:2 ~ws:ws2;
      (* The decision leg for v2 lands while the group is in flight
         (slots dequeued, nothing published yet). *)
      Sim.Process.sleep engine 0.05;
      ivar := Some (Core.Replica.commit_local replica ~version:2 ~ws:ws2));
  Sim.Engine.run engine;
  Alcotest.(check int) "group published through v2" 2 (Core.Replica.v_local replica);
  check_settled ~what:"p=2" !ivar

(* A crash while refresh writesets are being applied cancels them,
   whatever the lane count: nothing is installed, [V_local] does not
   move and no commit is acknowledged. Recovery replays the versions
   from the certifier log. At p = 2 the two disjoint writesets form one
   parallel group; at p = 1 the crash lands inside v1's apply. *)
let test_crash_mid_apply_cancels_run () =
  List.iter
    (fun p ->
      let engine = Sim.Engine.create () in
      let replica = race_replica engine ~p in
      let acked = ref [] in
      Core.Replica.set_on_commit replica (fun ~version -> acked := version :: !acked);
      Sim.Process.spawn engine (fun () ->
          Core.Replica.receive_refresh replica ~version:1 ~ws:(race_ws 1);
          Core.Replica.receive_refresh replica ~version:2 ~ws:(race_ws 2);
          (* Inside the first apply (0.12 ms of CPU). *)
          Sim.Process.sleep engine 0.05;
          Core.Replica.crash replica);
      Sim.Engine.run engine;
      let what = Printf.sprintf "p=%d" p in
      Alcotest.(check int) (what ^ ": nothing installed") 0
        (Core.Replica.applied_refresh replica);
      Alcotest.(check int) (what ^ ": nothing published") 0 (Core.Replica.v_local replica);
      Alcotest.(check (list int)) (what ^ ": nothing acknowledged") [] !acked)
    [ 1; 2 ]

(* The pending-set rule early certification checks against: a refresh
   writeset blocks local updates of its keys while it is queued, and
   stops blocking once the sequencer dequeues it — before its version
   is published. A transaction that had already written the key when
   the refresh arrived is flagged for abort on arrival. *)
let test_pending_set_is_queued_refreshes () =
  let write replica ~tid key =
    let txn = Core.Replica.begin_txn replica ~tid in
    ignore
      (Storage.Query.exec txn
         (Storage.Query.Update_key
            {
              table = "t00";
              key = [| Storage.Value.Int key |];
              set = [ ("val", Storage.Expr.(Col 1 + i 1)) ];
            }));
    txn
  in
  List.iter
    (fun p ->
      let engine = Sim.Engine.create () in
      let replica = race_replica engine ~p in
      let what fmt = Printf.sprintf ("p=%d: " ^^ fmt) p in
      Sim.Process.spawn engine (fun () ->
          ignore (write replica ~tid:1 1);
          (* v1 and v2 are disjoint: at p = 2 they are dequeued as one
             group, at p = 1 v2 waits behind v1. *)
          Core.Replica.receive_refresh replica ~version:1 ~ws:(race_ws 1);
          Core.Replica.receive_refresh replica ~version:2 ~ws:(race_ws 2);
          Alcotest.(check bool) (what "earlier writer of the key flagged") true
            (Core.Replica.abort_requested replica ~tid:1);
          Alcotest.(check bool) (what "queued refresh blocks its key") false
            (Core.Replica.early_certify replica (write replica ~tid:2 1));
          Sim.Process.sleep engine 0.05;
          Alcotest.(check int) (what "v1 not yet published") 0
            (Core.Replica.v_local replica);
          Alcotest.(check bool) (what "dequeued refresh no longer blocks") true
            (Core.Replica.early_certify replica (write replica ~tid:3 1));
          Alcotest.(check bool) (what "later writer not flagged") false
            (Core.Replica.abort_requested replica ~tid:3));
      Sim.Engine.run engine;
      Alcotest.(check int) (what "both refreshes applied") 2 (Core.Replica.v_local replica))
    [ 1; 2 ]

let test_chaos_soak_smoke () =
  (* One cell of the chaos matrix end to end through the harness: the
     mixed plan must pass every checker and reproduce bit-identically. *)
  let p =
    Experiments.Chaos.point ~mode:Core.Consistency.Fine ~plan:Experiments.Runner.Mixed
      ~seed:3 ~duration_ms:1_200.0 ()
  in
  let s = Experiments.Runner.run_point p in
  let again = Experiments.Runner.run_point p in
  Alcotest.(check bool)
    (Format.asprintf "chaos run ok: %a" Experiments.Chaos.pp_result (p, s))
    true (Experiments.Chaos.ok (p, s));
  Alcotest.(check bool) "faults were injected" true
    (Experiments.Runner.total s "fault.drops" > 0);
  Alcotest.(check bool) "same seed, same runlog digest" true
    (String.equal s.Experiments.Runner.digest again.Experiments.Runner.digest)

let test_chaos_clean_plan_soak () =
  (* The clean plan through the same harness: no faults fire, nothing
     retransmits, and every checker passes. *)
  let p =
    Experiments.Chaos.point ~mode:Core.Consistency.Eager ~plan:Experiments.Runner.Clean
      ~seed:1 ~duration_ms:1_000.0 ()
  in
  let s = Experiments.Runner.run_point p in
  Alcotest.(check bool)
    (Format.asprintf "clean soak ok: %a" Experiments.Chaos.pp_result (p, s))
    true (Experiments.Chaos.ok (p, s));
  Alcotest.(check int) "no drops" 0 (Experiments.Runner.total s "fault.drops");
  Alcotest.(check int) "no duplicates" 0 (Experiments.Runner.total s "fault.duplicates")

let test_lossy_soak_fault_totals () =
  (* The chaos lossy plan, driven as a soak drives it (run_for with no
     warm-up): the window's fault.* totals are exactly what the plan's
     own counters gained after the window opened — no event hook, no
     copy. *)
  let seed = 2 and duration_ms = 800.0 in
  let config = Experiments.Chaos.default_config ~seed in
  let cluster =
    Core.Cluster.create ~config
      ~faults:
        (Experiments.Runner.build_plan Experiments.Runner.Lossy ~seed ~duration_ms
           ~replicas:config.Core.Config.replicas)
      ~mode:Core.Consistency.Fine
      ~schemas:(Workload.Microbench.schemas Experiments.Chaos.default_params)
      ~load:(Workload.Microbench.load Experiments.Chaos.default_params)
      ()
  in
  Core.Client.spawn_many cluster ~n:12 ~first_sid:0
    (Workload.Microbench.workload Experiments.Chaos.default_params);
  let f = Option.get (Core.Cluster.faults cluster) in
  let counters () = [ Sim.Faults.drops f; Sim.Faults.duplicates f; Sim.Faults.delays f ] in
  let engine = Core.Cluster.engine cluster and m = Core.Cluster.metrics cluster in
  (* [run_for ~warmup_ms:0.0], with the counters read at the reset. *)
  Sim.Engine.run engine ~until:0.0;
  Core.Metrics.reset_window m;
  let at_open = counters () in
  Sim.Engine.run engine ~until:duration_ms;
  let window =
    List.map (fun name -> Core.Metrics.total m name)
      [ "fault.drops"; "fault.duplicates"; "fault.delays" ]
  in
  Alcotest.(check (list int)) "fault totals = plan counters since the window opened"
    (List.map2 ( - ) (counters ()) at_open)
    window;
  Alcotest.(check bool) "every fault kind fired" true (List.for_all (fun n -> n > 0) window)

let suites =
  [
    ( "faults",
      [
        Alcotest.test_case "crash + recover catches up" `Quick
          test_crash_then_recover_catches_up;
        Alcotest.test_case "strong consistency across crash" `Quick
          test_crash_preserves_strong_consistency;
        Alcotest.test_case "eager does not wedge on crash" `Quick
          test_crash_during_eager_does_not_wedge;
        Alcotest.test_case "clients survive crash via retries" `Quick
          test_client_requests_survive_crash;
        Alcotest.test_case "recovery replays missed writesets" `Quick
          test_recovery_replays_missed_writesets;
        Alcotest.test_case "state transfer after log prune" `Quick
          test_state_transfer_after_log_prune;
        Alcotest.test_case "certifier failover" `Quick test_certifier_failover;
        Alcotest.test_case "certifier crash requires standby" `Quick
          test_certifier_crash_requires_standby;
        Alcotest.test_case "replicas converge" `Quick test_replicas_converge_to_same_state;
      ] );
    ( "faults.hardened",
      [
        Alcotest.test_case "detector transitions" `Quick test_detector_transitions;
        Alcotest.test_case "detector routes around suspects" `Quick
          test_detector_routes_around_suspects;
        Alcotest.test_case "lossy refresh repair + dedup" `Quick
          test_lossy_refresh_repair_and_dedup;
        Alcotest.test_case "partition suspect + rejoin" `Quick
          test_partition_suspects_then_recovers;
        Alcotest.test_case "eviction unblocks GC" `Quick
          test_eviction_unblocks_gc_and_forces_state_transfer;
        Alcotest.test_case "client backoff" `Quick test_backoff_defaults_off_and_works_when_on;
        Alcotest.test_case "a fault-free run retransmits nothing" `Quick
          test_fault_free_run_retransmits_nothing;
        Alcotest.test_case "abort breakdown + fault counters" `Quick
          test_abort_reason_breakdown;
        Alcotest.test_case "commit races apply, p=1" `Quick
          test_commit_local_races_single_apply;
        Alcotest.test_case "commit races apply, p=2" `Quick
          test_commit_local_races_group_apply;
        Alcotest.test_case "crash mid-apply cancels the run" `Quick
          test_crash_mid_apply_cancels_run;
        Alcotest.test_case "pending set is queued refreshes" `Quick
          test_pending_set_is_queued_refreshes;
        Alcotest.test_case "chaos soak smoke" `Quick test_chaos_soak_smoke;
        Alcotest.test_case "chaos clean plan" `Quick test_chaos_clean_plan_soak;
        Alcotest.test_case "lossy soak fault totals" `Quick test_lossy_soak_fault_totals;
      ] );
  ]
