(* Certifier high availability (docs/PROTOCOL.md, "Certifier HA").

   The group machinery itself: primary->standby replication as real
   addressed network traffic (visible in the per-link counters, subject
   to fault injection, retransmitted under loss), commit release gated
   on the standby ack quorum, outage queueing order across a promotion,
   automatic epoch-bumped promotion, epoch fencing of a dead history's
   stragglers, and reconciliation of a deposed primary back into the
   group. Every promotion is automatic: the tests crash a primary and
   the group's standby failure detectors elect the successor. The bit-identity of [certifier_standbys = 0] with
   the pre-HA protocol is pinned by the golden tests in test_core.ml. *)

let params = { Workload.Microbench.tables = 4; rows = 100; update_types = 4 }

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

let ha_config =
  {
    Core.Config.default with
    replicas = 3;
    seed = 5;
    certifier_standbys = 2;
    gc_interval_ms = 0.0;
    hiccup_interval_ms = 0.0;
  }

(* Block the calling process until the failure detectors have promoted
   a standby over the crashed primary. *)
let await_promotion engine c =
  while Core.Certifier.is_crashed c do
    Sim.Process.sleep engine 1.0
  done

(* Direct certifier-group harness. Every group with standbys runs its
   failure detectors: the standbys heartbeat the primary and elect a
   successor when it goes silent. *)
let with_group ?(config = ha_config) ?faults ?(mode = Core.Consistency.Coarse) f =
  let engine = Sim.Engine.create () in
  let rng = Util.Rng.create 1 in
  let network =
    Sim.Network.create engine ~rng:(Util.Rng.split rng) ~base_ms:0.1 ~jitter_ms:0.0
      ~bandwidth_mbps:1000.0
  in
  (match faults with
  | Some make ->
    let fl = make engine in
    Sim.Network.set_faults network fl
  | None -> ());
  let certifier = Core.Certifier.create ~intern engine config ~rng ~network ~mode in
  Helpers.run_process engine (fun () -> f engine certifier network)

let commit_or_fail c ~origin ~snapshot ~ws =
  match Core.Certifier.certify c ~origin ~snapshot ~ws with
  | Core.Certifier.Commit { version; epoch; _ } -> (version, epoch)
  | _ -> Alcotest.fail "disjoint writer aborted"

(* --- Replication on the wire (satellite: latency accounting) -------- *)

let test_standby_traffic_on_network () =
  (* Replication to standbys must be real traffic on the addressed
     primary->standby links — not an off-network latency fudge — and a
     commit must not be released before the ack quorum covers it. *)
  with_group (fun _engine c net ->
      for i = 1 to 20 do
        let version, _ = commit_or_fail c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i) in
        Alcotest.(check int) (Printf.sprintf "v%d in order" i) i version;
        (* Release gated on the quorum: both standbys acked the version
           by the time the decision reaches the client. *)
        for k = 1 to 2 do
          Alcotest.(check bool)
            (Printf.sprintf "standby %d acked v%d at release" k version)
            true
            (Core.Certifier.node_acked c k >= version)
        done
      done;
      let primary = Core.Config.node_certifier in
      let standby = Core.Config.node_cert_standby 1 in
      Alcotest.(check bool) "push messages on the data link" true
        (Sim.Network.link_messages net ~src:primary ~dst:standby > 0);
      Alcotest.(check bool) "push bytes on the data link" true
        (Sim.Network.link_bytes net ~src:primary ~dst:standby > 0);
      Alcotest.(check bool) "ack messages on the return link" true
        (Sim.Network.link_messages net ~src:standby ~dst:primary > 0);
      (* Both standby copies of the log reached the head. *)
      Alcotest.(check int) "standby 1 at head" (Core.Certifier.version c)
        (Core.Certifier.node_version c 1);
      Alcotest.(check int) "standby 2 at head" (Core.Certifier.version c)
        (Core.Certifier.node_version c 2))

let test_lossy_standby_link_retransmits () =
  (* Drops on the replication link hit the stop-and-wait transfer: the
     pusher pays retransmission timeouts but durability is never faked —
     every released commit is still covered by real acks. *)
  let dropped = ref None in
  let faults engine =
    let f = Sim.Faults.create ~seed:3 engine in
    Sim.Faults.set_link f ~src:Core.Config.node_certifier
      ~dst:(Core.Config.node_cert_standby 1)
      (Sim.Faults.spec ~drop:0.4 ());
    dropped := Some f;
    f
  in
  with_group ~faults (fun _engine c net ->
      for i = 1 to 30 do
        ignore (commit_or_fail c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i))
      done;
      let f = Option.get !dropped in
      Alcotest.(check bool) "drops actually fired" true (Sim.Faults.drops f > 0);
      Alcotest.(check bool) "pushes were retransmitted" true
        (Sim.Network.retransmits net > 0);
      Alcotest.(check int) "lossy standby still reached the head"
        (Core.Certifier.version c)
        (Core.Certifier.node_version c 1);
      Alcotest.(check bool) "acks cover the head" true
        (Core.Certifier.node_acked c 1 >= Core.Certifier.version c))

(* --- Outage queueing across a promotion (satellite) ----------------- *)

let test_outage_queueing_preserves_order () =
  (* Requests arriving while the primary is down block on the revival
     queue; the promotion must wake them in arrival order, interleaved
     origins and all, and decide them under the new epoch. They arrive
     10-15 ms after the crash, well inside the 40 ms suspicion window. *)
  let decided = ref [] in
  with_group (fun engine c _net ->
      ignore (commit_or_fail c ~origin:0 ~snapshot:0 ~ws:(ws_on "t" 1));
      Core.Certifier.crash c;
      for i = 0 to 5 do
        Sim.Process.spawn engine (fun () ->
            (* Distinct arrival instants, alternating origins. *)
            Sim.Process.sleep engine (10.0 +. float_of_int i);
            let version, epoch =
              commit_or_fail c ~origin:(i mod 2) ~snapshot:1 ~ws:(ws_on "t" (100 + i))
            in
            decided := (i, version, epoch) :: !decided)
      done;
      while List.length !decided < 6 do
        Sim.Process.sleep engine 10.0
      done);
  let decided = List.sort compare !decided in
  Alcotest.(check int) "every queued request decided" 6 (List.length decided);
  List.iteri
    (fun i (arrival, version, epoch) ->
      Alcotest.(check int) "arrival order intact" i arrival;
      (* Versions assigned strictly in arrival order: FIFO across the
         outage, no origin starved by the interleaving. *)
      Alcotest.(check int)
        (Printf.sprintf "arrival %d got version %d" arrival (2 + i))
        (2 + i) version;
      Alcotest.(check int) "decided under the new epoch" 1 epoch)
    decided

(* --- Eviction rejoin watermark (satellite) -------------------------- *)

let test_evicted_rejoin_reenters_at_applied () =
  (* An evicted replica that rejoins after state transfer re-enters the
     watermark table at its transferred version — re-entering at 0 (the
     old behaviour) pinned the GC floor at the log base until its next
     heartbeat. *)
  let config = { ha_config with Core.Config.certifier_standbys = 0 } in
  with_group ~config (fun engine c _net ->
      Core.Certifier.subscribe c ~replica:0 (fun ~epoch:_ _ -> ());
      Core.Certifier.subscribe c ~replica:1 (fun ~epoch:_ _ -> ());
      for i = 1 to 8 do
        ignore (commit_or_fail c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i))
      done;
      Core.Certifier.heartbeat c ~replica:0 ~applied:8 ~held:8;
      Core.Certifier.heartbeat c ~replica:1 ~applied:2 ~held:2;
      Core.Certifier.mark_down c ~replica:1;
      Sim.Process.sleep engine (Core.Certifier.evict_after_ms +. 100.0);
      Core.Certifier.gc c;
      Alcotest.(check bool) "silent corpse evicted" true
        (Core.Certifier.needs_state_transfer c ~replica:1);
      Alcotest.(check int) "floor released by the eviction" 8
        (Core.Certifier.min_watermark c);
      Core.Certifier.mark_up ~applied:8 c ~replica:1;
      Alcotest.(check int) "rejoined at the transferred version" 8
        (Core.Certifier.watermark c ~replica:1);
      Alcotest.(check int) "GC floor does not collapse to 0" 8
        (Core.Certifier.min_watermark c))

(* --- Reconciliation of a deposed primary ---------------------------- *)

let test_deposed_primary_reconciles_and_refollows () =
  (* After a promotion, the old primary's unreleased tail is dead
     history: on revival it must truncate to the promotion point, adopt
     the ruling epoch, and re-follow to an identical log copy. *)
  with_group (fun engine c _net ->
      for i = 1 to 10 do
        ignore (commit_or_fail c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i))
      done;
      Core.Certifier.crash c;
      await_promotion engine c;
      let new_primary = Core.Certifier.primary_index c in
      Alcotest.(check bool) "role moved" true (new_primary <> 0);
      for i = 11 to 20 do
        ignore (commit_or_fail c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i))
      done;
      Core.Certifier.revive_node c 0;
      (* Let replication drag the deposed member back to the head. *)
      Sim.Process.sleep engine 100.0;
      Alcotest.(check int) "deposed member adopted the ruling epoch"
        (Core.Certifier.current_epoch c)
        (Core.Certifier.node_epoch c 0);
      Alcotest.(check int) "deposed member re-followed to the head"
        (Core.Certifier.version c)
        (Core.Certifier.node_version c 0);
      (* Structural identity of the log copies: no divergent entry may
         survive reconciliation. *)
      let reference = Hashtbl.create 32 in
      List.iter
        (fun (v, ws) -> Hashtbl.replace reference v (Storage.Writeset.entries ws))
        (Core.Certifier.node_log c new_primary);
      List.iter
        (fun (v, ws) ->
          match Hashtbl.find_opt reference v with
          | None -> ()
          | Some entries ->
            Alcotest.(check bool) (Printf.sprintf "log entry v%d identical" v) true
              (entries = Storage.Writeset.entries ws))
        (Core.Certifier.node_log c 0))

let test_deposed_batch_stays_out_of_index () =
  (* A primary deposed in the middle of a batch keeps deciding the rest
     of it on its own doomed log, but must not record those decisions in
     the index the new primary rebuilt. Each row costs 2 s of
     certification on average, so the promotion lands while the batch
     [A; B] is still being decided: the primary is crashed once A is
     decided, and the test checks that the promotion came before B's
     decision. Both are fenced; B's key must stay certifiable. *)
  let config =
    {
      ha_config with
      Core.Config.cert_batch = 2;
      certify_base_ms = 0.0;
      certify_row_ms = 2_000.0;
    }
  in
  with_group ~config (fun engine c _net ->
      let decided = ref [] in
      let request name key ~at ~snapshot =
        Sim.Process.spawn engine (fun () ->
            Sim.Process.sleep engine at;
            let d = Core.Certifier.certify c ~origin:0 ~snapshot ~ws:(ws_on "t" key) in
            decided := (name, d) :: !decided)
      in
      (* C holds the CPU while it is certified; A and B queue behind it
         and are drained as one batch. *)
      request "C" 100 ~at:0.0 ~snapshot:0;
      request "A" 1 ~at:1.0 ~snapshot:0;
      request "B" 2 ~at:1.0 ~snapshot:0;
      while Core.Certifier.version c < 2 do
        Sim.Process.sleep engine 1.0
      done;
      Alcotest.(check int) "crashed after A's decision, before B's" 2
        (Core.Certifier.version c);
      Core.Certifier.crash c;
      await_promotion engine c;
      Alcotest.(check int) "promoted before B was decided" 2
        (Core.Certifier.node_version c 0);
      while List.length !decided < 3 do
        Sim.Process.sleep engine 10.0
      done;
      List.iter
        (fun name ->
          match List.assoc name !decided with
          | Core.Certifier.Abort -> ()
          | _ -> Alcotest.failf "%s survived the deposed epoch" name)
        [ "A"; "B" ];
      match Core.Certifier.certify c ~origin:0 ~snapshot:1 ~ws:(ws_on "t" 2) with
      | Core.Certifier.Commit { version; _ } ->
        Alcotest.(check int) "next version of the ruling history" 2 version
      | _ -> Alcotest.fail "a fenced write of the deposed batch blocks its key")

(* --- Automatic promotion, end to end -------------------------------- *)

let auto_config =
  Core.Config.hardened
    {
      Core.Config.default with
      replicas = 3;
      seed = 21;
      record_log = true;
      certifier_standbys = 2;
      gc_interval_ms = 0.0;
      hiccup_interval_ms = 0.0;
    }

let test_automatic_promotion_end_to_end () =
  (* Kill the primary under load: a standby's
     failure detector must promote it, commits must resume under the
     bumped epoch, and the whole history must stay strongly consistent
     and epoch-fenced. *)
  let cluster =
    Core.Cluster.create ~config:auto_config ~mode:Core.Consistency.Coarse
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  let engine = Core.Cluster.engine cluster in
  let certifier = Core.Cluster.certifier cluster in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0 (Workload.Microbench.workload params);
  let version_at_crash = ref 0 in
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 500.0;
      version_at_crash := Core.Certifier.version certifier;
      Core.Cluster.crash_certifier cluster;
      Sim.Process.sleep engine 700.0;
      Core.Cluster.revive_certifier_node cluster 0);
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:3_000.0;
  Alcotest.(check bool) "a standby promoted itself" true
    (Core.Certifier.promotions certifier >= 1);
  Alcotest.(check bool) "epoch advanced" true (Core.Certifier.current_epoch certifier >= 1);
  Alcotest.(check bool) "the old primary is not in charge" true
    (Core.Certifier.primary_index certifier <> 0);
  Alcotest.(check bool) "commits resumed after the promotion" true
    (Core.Certifier.version certifier > !version_at_crash + 100);
  (* The revived ex-primary reconciled back into the group. *)
  Alcotest.(check int) "revived member adopted the ruling epoch"
    (Core.Certifier.current_epoch certifier)
    (Core.Certifier.node_epoch certifier 0);
  let log = Core.Cluster.records cluster in
  Alcotest.(check int) "strong consistency across the promotion" 0
    (List.length (Check.Runlog.strong_consistency log));
  Alcotest.(check int) "first-committer-wins held" 0
    (List.length (Check.Runlog.first_committer_wins log));
  Alcotest.(check int) "commit versions epoch-fenced" 0
    (List.length (Check.Runlog.epoch_fencing log))

(* --- Epoch fencing -------------------------------------------------- *)

let test_replica_fences_stale_epoch_refresh () =
  (* A deposed primary's late refresh batch must be dropped whole; a
     newer epoch is adopted. *)
  let engine = Sim.Engine.create () in
  let config = { ha_config with Core.Config.certifier_standbys = 0 } in
  let db = Storage.Database.create () in
  List.iter
    (fun s -> ignore (Storage.Database.create_table db s))
    (Workload.Microbench.schemas params);
  Workload.Microbench.load params db;
  let replica = Core.Replica.create engine config ~rng:(Util.Rng.create 3) ~id:0 db in
  Core.Replica.start replica;
  let item v =
    ( None,
      v,
      Storage.Writeset.of_entries ~intern:(Storage.Database.intern db)
        [
          {
            Storage.Writeset.ws_table = "t00";
            ws_key = [| Storage.Value.Int v |];
            ws_op =
              Storage.Writeset.Put
                [| Storage.Value.Int v; Storage.Value.Int 0; Storage.Value.Text "" |];
          };
        ] )
  in
  Sim.Process.spawn engine (fun () ->
      Core.Replica.receive_refresh_batch ~epoch:2 replica [ item 1 ];
      (* Stragglers from the dead epoch: fenced, not applied. *)
      Core.Replica.receive_refresh_batch ~epoch:1 replica [ item 2; item 3 ];
      Core.Replica.receive_refresh_batch ~epoch:2 replica [ item 2 ]);
  Sim.Engine.run engine;
  Alcotest.(check int) "newer epoch adopted" 2 (Core.Replica.cert_epoch replica);
  Alcotest.(check int) "one stale batch fenced" 1 (Core.Replica.fenced_refreshes replica);
  Alcotest.(check int) "only ruling-history versions applied" 2
    (Core.Replica.v_local replica)

let fence_record ?(epoch = 0) tid ~commit =
  {
    Check.Runlog.tid;
    session = 0;
    begin_time = float_of_int tid;
    ack_time = float_of_int tid +. 1.0;
    snapshot_version = 0;
    commit_version = Some commit;
    epoch;
    lb_epoch = 0;
    table_set = [ "t" ];
    tier = Check.Runlog.Strong;
    tables_written = [ "t" ];
    write_keys = [];
    trace = None;
  }

let test_epoch_fencing_checker () =
  (* Clean: each epoch's versions sit strictly above the previous
     epoch's. *)
  let clean =
    [
      fence_record 1 ~epoch:0 ~commit:1;
      fence_record 2 ~epoch:0 ~commit:2;
      fence_record 3 ~epoch:1 ~commit:3;
      fence_record 4 ~epoch:2 ~commit:4;
    ]
  in
  Alcotest.(check int) "monotone epochs pass" 0
    (List.length (Check.Runlog.epoch_fencing clean));
  (* A version released under epoch 0 re-assigned under epoch 1: the
     split-brain signature the fence exists to kill. *)
  let overlap =
    [
      fence_record 1 ~epoch:0 ~commit:1;
      fence_record 2 ~epoch:0 ~commit:5;
      fence_record 3 ~epoch:1 ~commit:5;
    ]
  in
  Alcotest.(check bool) "cross-epoch version reuse flagged" true
    (List.length (Check.Runlog.epoch_fencing overlap) > 0)

let suites =
  [
    ( "core.certha",
      [
        Alcotest.test_case "standby replication rides the network" `Quick
          test_standby_traffic_on_network;
        Alcotest.test_case "lossy standby link retransmits" `Quick
          test_lossy_standby_link_retransmits;
        Alcotest.test_case "outage queueing preserves arrival order" `Quick
          test_outage_queueing_preserves_order;
        Alcotest.test_case "evicted rejoin re-enters at applied version" `Quick
          test_evicted_rejoin_reenters_at_applied;
        Alcotest.test_case "deposed primary reconciles and re-follows" `Quick
          test_deposed_primary_reconciles_and_refollows;
        Alcotest.test_case "deposed mid-batch decisions stay out of the index" `Quick
          test_deposed_batch_stays_out_of_index;
        Alcotest.test_case "automatic promotion end to end" `Quick
          test_automatic_promotion_end_to_end;
        Alcotest.test_case "replica fences stale-epoch refresh" `Quick
          test_replica_fences_stale_epoch_refresh;
        Alcotest.test_case "epoch fencing checker" `Quick test_epoch_fencing_checker;
      ] );
  ]
