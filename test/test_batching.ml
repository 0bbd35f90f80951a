(* Batched certification and conflict-aware parallel refresh apply
   (docs/PROTOCOL.md, "Batched certification and refresh").

   The bit-identity of [cert_batch = 1] / [apply_parallelism = 1] with
   the pre-batching protocol is pinned in test_core.ml against golden
   values; this file exercises the batching machinery itself: batch
   formation under backlog, intra-batch conflict handling, the one
   message-per-replica refresh fan-out, crash/recovery across a
   partially applied group, and the consistency guarantees under
   batched configurations. *)

(* The intern table of every certifier these tests create. *)
let intern = Storage.Intern.create ()

let ws_on table key =
  Storage.Writeset.of_entries ~intern
    [
      {
        Storage.Writeset.ws_table = table;
        ws_key = [| Storage.Value.Int key |];
        ws_op = Storage.Writeset.Put [| Storage.Value.Int key |];
      };
    ]

(* --- Direct certifier tests ---------------------------------------- *)

let cert_config =
  {
    Core.Config.default with
    replicas = 3;
    seed = 11;
    cert_batch = 4;
    hiccup_interval_ms = 0.0;
    gc_interval_ms = 0.0;
  }

let with_certifier f =
  let engine = Sim.Engine.create () in
  let rng = Util.Rng.create 1 in
  let network =
    Sim.Network.create engine ~rng:(Util.Rng.split rng) ~base_ms:0.1 ~jitter_ms:0.0
      ~bandwidth_mbps:1000.0
  in
  let certifier =
    Core.Certifier.create ~intern engine cert_config ~rng ~network
      ~mode:Core.Consistency.Coarse
  in
  f engine certifier;
  Sim.Engine.run engine

(* Three writers: the first forms a singleton batch; the other two queue
   while it is in service and are decided together as one batch. *)
let spawn_three engine c ~ws2 ~ws3 record =
  let run name ~origin ws =
    Sim.Process.spawn engine (fun () ->
        let decision = Core.Certifier.certify c ~origin ~snapshot:0 ~ws in
        record name decision (Sim.Engine.now engine))
  in
  run "p1" ~origin:0 (ws_on "t" 1);
  run "p2" ~origin:0 ws2;
  run "p3" ~origin:1 ws3

let test_intra_batch_conflict_aborts_later_arrival () =
  let decisions = Hashtbl.create 4 in
  with_certifier (fun engine c ->
      (* p2 and p3 write the same key with the same snapshot: they end up
         in one batch, where first-committer-wins must still hold. *)
      spawn_three engine c ~ws2:(ws_on "t" 2) ~ws3:(ws_on "t" 2) (fun name d at ->
          Hashtbl.replace decisions name (d, at)));
  let decision name = fst (Hashtbl.find decisions name) in
  (match decision "p1" with
  | Core.Certifier.Commit { version; _ } -> Alcotest.(check int) "p1 at v1" 1 version
  | _ -> Alcotest.fail "p1 aborted");
  (match decision "p2" with
  | Core.Certifier.Commit { version; _ } -> Alcotest.(check int) "p2 at v2" 2 version
  | _ -> Alcotest.fail "p2 aborted");
  (match decision "p3" with
  | Core.Certifier.Abort -> ()
  | _ -> Alcotest.fail "intra-batch conflict not detected");
  (* p2 and p3 were decided in the same batch: same decision instant. *)
  let at name = snd (Hashtbl.find decisions name) in
  Alcotest.(check (float 1e-9)) "p2/p3 decided together" (at "p2") (at "p3");
  Alcotest.(check bool) "p1 decided earlier (own batch)" true (at "p1" < at "p2")

let test_refresh_batch_one_message_per_replica () =
  let delivered = ref [] in  (* (replica, versions in one message), reversed *)
  with_certifier (fun engine c ->
      let stub replica ~epoch:_ items =
        delivered := (replica, List.map (fun (_, v, _) -> v) items) :: !delivered
      in
      Core.Certifier.subscribe c ~replica:0 (stub 0);
      Core.Certifier.subscribe c ~replica:9 (stub 9);
      (* No conflicts: p2 (origin 0) and p3 (origin 1) both commit, in
         one batch. *)
      spawn_three engine c ~ws2:(ws_on "t" 2) ~ws3:(ws_on "t" 3) (fun _ _ _ -> ()));
  let messages_to replica =
    List.rev (List.filter_map (fun (r, vs) -> if r = replica then Some vs else None) !delivered)
  in
  (* Replica 9 originated nothing: one singleton message for p1's batch,
     then ONE message carrying both commits of the second batch. *)
  Alcotest.(check (list (list int))) "replica 9 messages" [ [ 1 ]; [ 2; 3 ] ]
    (messages_to 9);
  (* Replica 0 originated p1 and p2, so it receives neither: only p3's
     commit reaches it, inside the second batch's message. *)
  Alcotest.(check (list (list int))) "replica 0 messages" [ [ 3 ] ] (messages_to 0)

(* --- Cluster-level tests ------------------------------------------- *)

let params = { Workload.Microbench.tables = 4; rows = 100; update_types = 4 }

let batched_config =
  {
    Core.Config.default with
    replicas = 3;
    seed = 33;
    record_log = true;
    gc_interval_ms = 0.0;
    hiccup_interval_ms = 0.0;
    cert_batch = 8;
    apply_parallelism = 2;
  }

let make_cluster ?(config = batched_config) mode =
  Core.Cluster.create ~config ~mode
    ~schemas:(Workload.Microbench.schemas params)
    ~load:(Workload.Microbench.load params)
    ()

let fingerprint_at cluster i ~at =
  Storage.Database.fingerprint (Core.Replica.database (Core.Cluster.replica cluster i)) ~at

let test_crash_mid_batch_recovers_by_replay () =
  (* With [apply_parallelism = 2] a crash can interrupt a group between
     install and publish; recovery must replay the certifier log over
     the partially installed writesets and converge. *)
  let cluster = make_cluster Core.Consistency.Coarse in
  let engine = Core.Cluster.engine cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 500.0;
      Core.Cluster.crash_replica cluster 2;
      Sim.Process.sleep engine 1_000.0;
      Core.Cluster.recover_replica cluster 2);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:3_000.0;
  let certified = Core.Certifier.version (Core.Cluster.certifier cluster) in
  let recovered = Core.Replica.v_local (Core.Cluster.replica cluster 2) in
  Alcotest.(check bool)
    (Printf.sprintf "recovered replica caught up (v_local %d, certified %d)" recovered
       certified)
    true
    (certified - recovered < 20);
  Alcotest.(check bool) "progress was made" true (certified > 100);
  (* Every replica agrees on the database contents at the deepest common
     prefix of the commit order. *)
  let min_v =
    List.fold_left min max_int
      (List.init 3 (fun i -> Core.Replica.v_local (Core.Cluster.replica cluster i)))
  in
  let reference = fingerprint_at cluster 0 ~at:min_v in
  for i = 1 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d converged with replica 0 at v%d" i min_v)
      reference
      (fingerprint_at cluster i ~at:min_v)
  done

let check_empty name violations =
  match violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violations, first: %s" name (List.length violations)
      (Format.asprintf "%a" Check.Runlog.pp_violation v)

let test_fine_version_accounting_under_batching () =
  (* Theorem 2 (Table I version arithmetic) must survive batching: the
     per-table V_t tracking feeds start versions, and delayed group
     publication must never let a transaction read an inconsistent
     snapshot. *)
  let cluster = make_cluster Core.Consistency.Fine in
  Core.Client.spawn_many cluster ~n:12 ~first_sid:0 (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:3_000.0;
  let log = Core.Cluster.records cluster in
  Alcotest.(check bool) "log non-trivial" true (List.length log > 100);
  check_empty "fine strong under batching" (Check.Runlog.fine_strong_consistency log);
  check_empty "fcw under batching" (Check.Runlog.first_committer_wins log);
  (* The batching machinery actually engaged. *)
  let m = Core.Cluster.metrics cluster in
  Alcotest.(check bool) "certification batches recorded" true
    (Core.Metrics.cert_batches m > 0);
  Alcotest.(check bool) "apply groups recorded" true (Core.Metrics.apply_groups m > 0);
  Alcotest.(check bool) "group size sane" true (Core.Metrics.mean_apply_group m >= 1.0)

let test_eager_with_parallel_apply () =
  (* Eager global commit counts one ack per version; group publication
     must still produce every ack, in order. *)
  let cluster = make_cluster Core.Consistency.Eager in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:2_000.0;
  let log = Core.Cluster.records cluster in
  Alcotest.(check bool) "eager cluster committed" true (List.length log > 100);
  check_empty "strong under batching" (Check.Runlog.strong_consistency log);
  check_empty "fcw" (Check.Runlog.first_committer_wins log)

let batched_run () =
  let cluster = make_cluster Core.Consistency.Session in
  Core.Client.spawn_many cluster ~n:12 ~first_sid:0 (Workload.Microbench.workload params);
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:1_500.0;
  let m = Core.Cluster.metrics cluster in
  let v = Core.Certifier.version (Core.Cluster.certifier cluster) in
  let fp = fingerprint_at cluster 0 ~at:(Core.Replica.v_local (Core.Cluster.replica cluster 0)) in
  (Core.Metrics.committed m, Core.Metrics.mean_response_ms m, v, fp)

let test_batched_run_is_deterministic () =
  (* Parallel lanes are simulated processes, not OS threads: a batched
     run must be exactly reproducible like everything else. *)
  let c1, r1, v1, f1 = batched_run () in
  let c2, r2, v2, f2 = batched_run () in
  Alcotest.(check int) "same committed count" c1 c2;
  Alcotest.(check (float 0.0)) "same mean response" r1 r2;
  Alcotest.(check int) "same certified version" v1 v2;
  Alcotest.(check int) "same database contents" f1 f2

let suites =
  [
    ( "core.batching",
      [
        Alcotest.test_case "intra-batch conflict aborts later arrival" `Quick
          test_intra_batch_conflict_aborts_later_arrival;
        Alcotest.test_case "one refresh message per replica" `Quick
          test_refresh_batch_one_message_per_replica;
        Alcotest.test_case "crash mid-batch recovers by replay" `Quick
          test_crash_mid_batch_recovers_by_replay;
        Alcotest.test_case "fine version accounting under batching" `Quick
          test_fine_version_accounting_under_batching;
        Alcotest.test_case "eager with parallel apply" `Quick
          test_eager_with_parallel_apply;
        Alcotest.test_case "batched run is deterministic" `Quick
          test_batched_run_is_deterministic;
      ] );
  ]
