(* Mixed-consistency read tiers (docs/CONSISTENCY.md): tier parsing,
   the load balancer's staleness-aware routing, session-floor edge
   cases, and end-to-end tier-contract validation. *)

let micro_params = { Workload.Microbench.tables = 4; rows = 100; update_types = 2 }

let tier_config =
  {
    Core.Config.default with
    replicas = 3;
    record_log = true;
    read_tiers = true;
    seed = 11;
    gc_interval_ms = 0.0;
    hiccup_interval_ms = 0.0;
  }

let make_cluster ?(config = tier_config) mode =
  Core.Cluster.create ~config ~mode
    ~schemas:(Workload.Microbench.schemas micro_params)
    ~load:(Workload.Microbench.load micro_params)
    ()

let read_req ?tier table key =
  Core.Transaction.make ~profile:"read" ?tier
    [ Storage.Query.Get { table; key = [| Storage.Value.Int key |] } ]

let update_req ?tier table key =
  Core.Transaction.make ~profile:"upd" ?tier
    [
      Storage.Query.Update_key
        {
          table;
          key = [| Storage.Value.Int key |];
          set = [ ("val", Storage.Expr.(Col 1 + i 1)) ];
        };
    ]

(* --- tier parsing ---------------------------------------------------- *)

let test_tier_string_roundtrip () =
  let roundtrip tier =
    let s = Core.Consistency.tier_to_string tier in
    match Core.Consistency.tier_of_string s with
    | Ok tier' -> Alcotest.(check string) ("roundtrip " ^ s) s
                    (Core.Consistency.tier_to_string tier')
    | Error e -> Alcotest.failf "cannot parse %S back: %s" s e
  in
  List.iter roundtrip
    [
      Core.Consistency.Strong;
      Core.Consistency.Causal;
      Core.Consistency.Eventual;
      Core.Consistency.Bounded_staleness { versions = Some 8; ms = None };
      Core.Consistency.Bounded_staleness { versions = None; ms = Some 50.0 };
      Core.Consistency.Bounded_staleness { versions = Some 3; ms = Some 12.5 };
    ];
  (match Core.Consistency.tier_of_string "bounded:" with
  | Ok _ -> Alcotest.fail "bounded with no bound should not parse"
  | Error _ -> ());
  match Core.Consistency.tier_of_string "snapshot" with
  | Ok _ -> Alcotest.fail "unknown tier should not parse"
  | Error _ -> ()

let test_tier_slugs () =
  Alcotest.(check (list string))
    "slug order" [ "strong"; "bounded"; "causal"; "eventual" ]
    Core.Consistency.all_tier_slugs;
  Alcotest.(check string) "bounded slug collapses bounds" "bounded"
    (Core.Consistency.tier_slug
       (Core.Consistency.Bounded_staleness { versions = Some 4; ms = Some 9.0 }))

(* --- admission ------------------------------------------------------- *)

let test_tiered_update_rejected () =
  Alcotest.(check bool) "strong update admissible" true
    (Core.Transaction.tier_violation (update_req "t00" 1) = None);
  Alcotest.(check bool) "tiered read admissible" true
    (Core.Transaction.tier_violation (read_req ~tier:Core.Consistency.Causal "t00" 1)
    = None);
  Alcotest.(check bool) "tiered update rejected" true
    (Core.Transaction.tier_violation (update_req ~tier:Core.Consistency.Eventual "t00" 1)
    <> None);
  (* End to end: the replica aborts it before executing anything, and
     the abort is permanent (not retried into oblivion). *)
  let cluster = make_cluster Core.Consistency.Coarse in
  let outcome = ref None in
  Sim.Process.spawn (Core.Cluster.engine cluster) (fun () ->
      outcome :=
        Some
          (Core.Cluster.submit cluster ~sid:0
             (update_req ~tier:Core.Consistency.Causal "t00" 1)));
  Helpers.settle (Core.Cluster.engine cluster);
  match !outcome with
  | Some (Core.Transaction.Aborted { reason = Core.Transaction.Statement_error _; _ }) ->
    ()
  | Some _ -> Alcotest.fail "tiered update should abort with Statement_error"
  | None -> Alcotest.fail "transaction did not finish"

(* --- load-balancer routing ------------------------------------------- *)

let make_lb () = Core.Load_balancer.create tier_config ~mode:Core.Consistency.Coarse

let test_bounded_routing_filter () =
  let lb = make_lb () in
  Core.Load_balancer.note_commit_ack lb ~sid:0 ~version:10 ~tables_written:[ "a" ];
  Core.Load_balancer.note_applied lb ~replica:0 ~version:9;
  Core.Load_balancer.note_applied lb ~replica:1 ~version:5;
  Core.Load_balancer.note_applied lb ~replica:2 ~version:2;
  (* max_lag 2 -> floor 8: only replica 0's watermark qualifies. *)
  let replica, floor =
    Core.Load_balancer.route_read lb ~sid:0
      ~tier:(Core.Consistency.Bounded_staleness { versions = Some 2; ms = None })
      ~now:0.0
  in
  Alcotest.(check int) "floor is v_system - k" 8 floor;
  Alcotest.(check int) "routed to the only satisfying replica" 0 replica;
  (* A loose bound admits everyone; the policy pick takes over (replica
     0 is busiest below, so least-active avoids it). *)
  Core.Load_balancer.note_dispatch lb ~replica:0;
  let replica, floor =
    Core.Load_balancer.route_read lb ~sid:0
      ~tier:(Core.Consistency.Bounded_staleness { versions = Some 9; ms = None })
      ~now:0.0
  in
  Alcotest.(check int) "loose floor" 1 floor;
  Alcotest.(check bool) "policy pick among satisfying replicas" true (replica <> 0)

let test_bounded_no_satisfier_waits () =
  let lb = make_lb () in
  Core.Load_balancer.note_commit_ack lb ~sid:0 ~version:10 ~tables_written:[ "a" ];
  Core.Load_balancer.note_applied lb ~replica:0 ~version:3;
  Core.Load_balancer.note_applied lb ~replica:1 ~version:7;
  Core.Load_balancer.note_applied lb ~replica:2 ~version:6;
  (* Nothing satisfies floor 10: route to the most-caught-up replica,
     keeping the floor — the replica's start wait enforces the bound. *)
  let replica, floor =
    Core.Load_balancer.route_read lb ~sid:0
      ~tier:(Core.Consistency.Bounded_staleness { versions = Some 0; ms = None })
      ~now:0.0
  in
  Alcotest.(check int) "floor preserved" 10 floor;
  Alcotest.(check int) "most-caught-up fallback" 1 replica

let test_ms_floor_history () =
  let lb = make_lb () in
  Core.Load_balancer.note_commit_ack lb ~sid:0 ~version:1 ~tables_written:[] ~now:100.0;
  Core.Load_balancer.note_commit_ack lb ~sid:0 ~version:5 ~tables_written:[] ~now:200.0;
  Core.Load_balancer.note_commit_ack lb ~sid:0 ~version:9 ~tables_written:[] ~now:300.0;
  let floor ~ms ~now =
    Core.Load_balancer.tier_floor lb ~sid:0
      ~tier:(Core.Consistency.Bounded_staleness { versions = None; ms = Some ms })
      ~now
  in
  (* "At most 50ms stale" at t=320 means V_system as of t=270: v5. *)
  Alcotest.(check int) "cutoff between entries" 5 (floor ~ms:50.0 ~now:320.0);
  Alcotest.(check int) "cutoff after newest entry" 9 (floor ~ms:50.0 ~now:1000.0);
  (* A cutoff before all recorded history resolves to 0 (nothing was
     committed then). *)
  Alcotest.(check int) "cutoff before history" 0 (floor ~ms:100.0 ~now:120.0);
  (* Both bounds given: the floors combine with max. *)
  Alcotest.(check int) "versions+ms takes max" 7
    (Core.Load_balancer.tier_floor lb ~sid:0
       ~tier:(Core.Consistency.Bounded_staleness { versions = Some 2; ms = Some 200.0 })
       ~now:320.0)

let test_causal_floor_and_eviction () =
  let lb = make_lb () in
  Core.Load_balancer.note_commit_ack lb ~sid:7 ~version:10 ~tables_written:[ "a" ];
  Core.Load_balancer.note_applied lb ~replica:0 ~version:10;
  Core.Load_balancer.note_applied lb ~replica:1 ~version:2;
  Core.Load_balancer.note_applied lb ~replica:2 ~version:3;
  (* The session's own floor routes it to the caught-up replica. *)
  let replica, floor =
    Core.Load_balancer.route_read lb ~sid:7 ~tier:Core.Consistency.Causal ~now:0.0
  in
  Alcotest.(check int) "causal floor is the session floor" 10 floor;
  Alcotest.(check int) "routed to the satisfying replica" 0 replica;
  (* Another session without writes has no floor at all. *)
  let _, floor =
    Core.Load_balancer.route_read lb ~sid:8 ~tier:Core.Consistency.Causal ~now:0.0
  in
  Alcotest.(check int) "fresh session has floor 0" 0 floor;
  (* Monotone reads: a strong read's snapshot raises the floor too. *)
  Core.Load_balancer.note_snapshot_ack lb ~sid:8 ~snapshot:4;
  let _, floor =
    Core.Load_balancer.route_read lb ~sid:8 ~tier:Core.Consistency.Causal ~now:0.0
  in
  Alcotest.(check int) "snapshot ack raises the floor" 4 floor;
  (* The only replica satisfying sid 7's floor goes down (eviction /
     crash): the floor must survive and the read fall back to a live
     replica that will catch up — never to the dead one. *)
  Core.Load_balancer.set_live lb ~replica:0 false;
  let replica, floor =
    Core.Load_balancer.route_read lb ~sid:7 ~tier:Core.Consistency.Causal ~now:0.0
  in
  Alcotest.(check int) "floor survives the eviction" 10 floor;
  Alcotest.(check int) "most-caught-up live fallback" 2 replica

(* --- end-to-end ------------------------------------------------------ *)

let submit_seq cluster reqs =
  (* Run [reqs] strictly one after another (each from a fresh process
     spawned after the previous ack) and return outcomes in order. *)
  let outcomes = ref [] in
  let engine = Core.Cluster.engine cluster in
  let rec go = function
    | [] -> ()
    | (sid, req, after) :: tl ->
      Sim.Process.spawn engine (fun () ->
          let o = Core.Cluster.submit cluster ~sid req in
          outcomes := o :: !outcomes;
          after ();
          go tl)
  in
  go reqs;
  Helpers.settle engine;
  List.rev !outcomes

let snapshot_of name = function
  | Core.Transaction.Committed { snapshot; _ } -> snapshot
  | Core.Transaction.Aborted { reason; _ } ->
    Alcotest.failf "%s aborted: %s" name (Core.Transaction.abort_slug reason)

let test_causal_read_after_failover () =
  (* A session writes, then the replica that served everything crashes;
     its next causal read must still observe the write (served by a
     surviving replica once it catches up), not a pre-write snapshot. *)
  let cluster = make_cluster Core.Consistency.Coarse in
  let outcomes =
    submit_seq cluster
      [
        (3, update_req "t00" 1, fun () -> ());
        ( 3,
          update_req "t01" 2,
          fun () ->
            (* Crash the replica most likely to be ahead (0 serves the
               first picks under least-active). *)
            Core.Cluster.crash_replica cluster 0 );
        (3, read_req ~tier:Core.Consistency.Causal "t00" 1, fun () -> ());
      ]
  in
  match outcomes with
  | [ _; o2; o3 ] ->
    let v2 = Option.get ((function
      | Core.Transaction.Committed { commit_version; _ } -> commit_version
      | _ -> None) o2)
    in
    Alcotest.(check bool) "causal read observes the session's last write" true
      (snapshot_of "causal read" o3 >= v2)
  | _ -> Alcotest.fail "expected 3 outcomes"

let test_bounded_zero_lag_sees_latest () =
  (* max_lag 0 right after an ack: the floor equals V_system, so the
     read waits until a replica applies it — it can never be served a
     stale snapshot even though every replica may lag at submit time. *)
  let cluster = make_cluster Core.Consistency.Coarse in
  let tier = Core.Consistency.Bounded_staleness { versions = Some 0; ms = None } in
  let outcomes =
    submit_seq cluster
      [
        (0, update_req "t00" 3, fun () -> ());
        (1, update_req "t00" 4, fun () -> ());
        (2, update_req "t00" 5, fun () -> ());
        (0, read_req ~tier "t00" 3, fun () -> ());
      ]
  in
  match List.rev outcomes with
  | read :: _ ->
    Alcotest.(check int) "bounded(0) read is current" 3
      (snapshot_of "bounded read" read)
  | [] -> Alcotest.fail "no outcomes"

let run_tiered mode =
  let cluster = make_cluster mode in
  Core.Client.spawn_many cluster ~n:16 ~first_sid:0
    (Workload.Microbench.tiered_workload micro_params);
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:2_500.0;
  cluster

let check_empty name violations =
  match violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violations, first: %s" name (List.length violations)
      (Format.asprintf "%a" Check.Runlog.pp_violation v)

let test_tiered_run_contracts () =
  let cluster = run_tiered Core.Consistency.Coarse in
  let log = Core.Cluster.records cluster in
  Alcotest.(check bool) "log non-trivial" true (List.length log > 100);
  let tiered =
    List.filter (fun r -> r.Check.Runlog.tier <> Check.Runlog.Strong) log
  in
  Alcotest.(check bool) "tiered reads present" true (List.length tiered > 20);
  check_empty "tier_bounded_staleness" (Check.Runlog.tier_bounded_staleness log);
  check_empty "tier_causal_ryw" (Check.Runlog.tier_causal_ryw log);
  check_empty "tier_monotone_reads" (Check.Runlog.tier_monotone_reads log);
  (* The mode's own guarantee, on Strong-class records only, still
     holds in the same run. *)
  check_empty "strong (Strong-class records)" (Check.Runlog.strong_consistency log);
  check_empty "fcw" (Check.Runlog.first_committer_wins log);
  (* Per-tier metrics recorded every class. *)
  let m = Core.Cluster.metrics cluster in
  List.iter
    (fun slug ->
      Alcotest.(check bool) (slug ^ " commits recorded") true
        (Core.Metrics.tier_committed m slug > 0))
    Core.Consistency.all_tier_slugs;
  Alcotest.(check bool) "eventual reads show staleness" true
    (Core.Metrics.tier_mean_staleness m "eventual" > 0.0)

let test_tiered_run_deterministic () =
  let digest () = Check.Runlog.digest (Core.Cluster.records (run_tiered Core.Consistency.Fine)) in
  Alcotest.(check string) "same seed, same tiered runlog" (digest ()) (digest ())

let suites =
  [
    ( "tiers",
      [
        Alcotest.test_case "tier string roundtrip" `Quick test_tier_string_roundtrip;
        Alcotest.test_case "tier slugs" `Quick test_tier_slugs;
        Alcotest.test_case "tiered update rejected" `Quick test_tiered_update_rejected;
        Alcotest.test_case "bounded routing filter" `Quick test_bounded_routing_filter;
        Alcotest.test_case "bounded no-satisfier waits" `Quick
          test_bounded_no_satisfier_waits;
        Alcotest.test_case "ms floor history" `Quick test_ms_floor_history;
        Alcotest.test_case "causal floor and eviction" `Quick
          test_causal_floor_and_eviction;
        Alcotest.test_case "causal read after failover" `Quick
          test_causal_read_after_failover;
        Alcotest.test_case "bounded zero-lag sees latest" `Quick
          test_bounded_zero_lag_sees_latest;
        Alcotest.test_case "tiered run satisfies contracts" `Slow
          test_tiered_run_contracts;
        Alcotest.test_case "tiered run deterministic" `Slow test_tiered_run_deterministic;
      ] );
  ]
