(* The keyed certification index: unit tests for index maintenance
   (commit, prune, failover rebuild), a QCheck differential property
   pinning Linear ≡ Keyed across randomized workloads with log
   truncation and certifier failover mid-stream, watermark-driven log
   GC, and the load balancer's watermark-bounded session table. *)

let small_config =
  {
    Core.Config.default with
    replicas = 3;
    seed = 7;
    gc_interval_ms = 0.0;
    hiccup_interval_ms = 0.0;
  }

let ws_at ?intern table key =
  Storage.Writeset.of_entries ?intern
    [
      {
        Storage.Writeset.ws_table = table;
        ws_key = [| key |];
        ws_op = Storage.Writeset.Put [| key |];
      };
    ]

let ws_on table key = ws_at table (Storage.Value.Int key)

let with_certifier ?(config = small_config) ?(mode = Core.Consistency.Coarse) f =
  let engine = Sim.Engine.create () in
  let rng = Util.Rng.create 1 in
  let network =
    Sim.Network.create engine ~rng:(Util.Rng.split rng) ~base_ms:0.1 ~jitter_ms:0.0
      ~bandwidth_mbps:1000.0
  in
  let certifier = Core.Certifier.create engine config ~rng ~network ~mode in
  Sim.Process.spawn engine (fun () -> f certifier);
  Sim.Engine.run engine

let keyed_config = { small_config with Core.Config.cert_index = Core.Config.Keyed }
let linear_config = { small_config with Core.Config.cert_index = Core.Config.Linear }

(* --- index maintenance ------------------------------------------------ *)

let test_index_tracks_last_writer () =
  with_certifier ~config:keyed_config (fun c ->
      (* Distinct keys: one index entry each. *)
      for i = 1 to 5 do
        match Core.Certifier.certify c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i) with
        | Core.Certifier.Commit _ -> ()
        | _ -> Alcotest.fail "disjoint writer aborted"
      done;
      Alcotest.(check int) "one entry per distinct key" 5 (Core.Certifier.index_size c);
      (* Rewriting key 3 must supersede, not add. *)
      (match Core.Certifier.certify c ~origin:0 ~snapshot:5 ~ws:(ws_on "t" 3) with
      | Core.Certifier.Commit { version; _ } -> Alcotest.(check int) "v6" 6 version
      | _ -> Alcotest.fail "up-to-date rewrite aborted");
      Alcotest.(check int) "rewrite replaces the entry" 5 (Core.Certifier.index_size c);
      (* A snapshot that predates the rewrite now conflicts on key 3
         only. *)
      (match Core.Certifier.certify c ~origin:1 ~snapshot:5 ~ws:(ws_on "t" 3) with
      | Core.Certifier.Abort -> ()
      | _ -> Alcotest.fail "stale rewrite certified");
      match Core.Certifier.certify c ~origin:1 ~snapshot:5 ~ws:(ws_on "t" 1) with
      | Core.Certifier.Commit _ -> ()
      | _ -> Alcotest.fail "non-conflicting key aborted")

let test_linear_oracle_conflict_window () =
  (* The Linear arm must implement the same window semantics — the
     conflict-window unit test rerun against the scan oracle. *)
  with_certifier ~config:linear_config (fun c ->
      Alcotest.(check int) "linear keeps no index" 0 (Core.Certifier.index_size c);
      (match Core.Certifier.certify c ~origin:0 ~snapshot:0 ~ws:(ws_on "t" 1) with
      | Core.Certifier.Commit { version; _ } -> Alcotest.(check int) "v1" 1 version
      | _ -> Alcotest.fail "first writer aborted");
      (match Core.Certifier.certify c ~origin:1 ~snapshot:0 ~ws:(ws_on "t" 1) with
      | Core.Certifier.Abort -> ()
      | _ -> Alcotest.fail "conflicting writer committed");
      (match Core.Certifier.certify c ~origin:1 ~snapshot:1 ~ws:(ws_on "t" 1) with
      | Core.Certifier.Commit _ -> ()
      | _ -> Alcotest.fail "sequential writer aborted");
      Alcotest.(check int) "still no index" 0 (Core.Certifier.index_size c))

let test_prune_drops_index_entries () =
  with_certifier ~config:keyed_config (fun c ->
      for i = 1 to 10 do
        match Core.Certifier.certify c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i) with
        | Core.Certifier.Commit _ -> ()
        | _ -> Alcotest.fail "unexpected abort"
      done;
      Core.Certifier.prune c ~keep_after:6;
      Alcotest.(check int) "entries <= horizon dropped" 4 (Core.Certifier.index_size c);
      (* Key 8 (committed at v8 > horizon) still conflicts for a
         snapshot of 7; key 9 does not for a snapshot of 9. *)
      (match Core.Certifier.certify c ~origin:0 ~snapshot:7 ~ws:(ws_on "t" 8) with
      | Core.Certifier.Abort -> ()
      | _ -> Alcotest.fail "post-horizon conflict missed");
      match Core.Certifier.certify c ~origin:0 ~snapshot:10 ~ws:(ws_on "t" 9) with
      | Core.Certifier.Commit _ -> ()
      | _ -> Alcotest.fail "up-to-date writer aborted")

let test_failover_rebuilds_index () =
  let config = { keyed_config with Core.Config.certifier_standbys = 1 } in
  with_certifier ~config (fun c ->
      for i = 1 to 8 do
        match Core.Certifier.certify c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i) with
        | Core.Certifier.Commit _ -> ()
        | _ -> Alcotest.fail "unexpected abort"
      done;
      Core.Certifier.prune c ~keep_after:3;
      Core.Certifier.crash c;
      Core.Certifier.failover c;
      (* The promoted standby rebuilt the index from its replicated log
         copy: only post-horizon entries, same decisions as before. *)
      Alcotest.(check int) "rebuilt from the log suffix" 5 (Core.Certifier.index_size c);
      (match Core.Certifier.certify c ~origin:0 ~snapshot:5 ~ws:(ws_on "t" 7) with
      | Core.Certifier.Abort -> ()
      | _ -> Alcotest.fail "conflict lost across failover");
      match Core.Certifier.certify c ~origin:0 ~snapshot:8 ~ws:(ws_on "t" 2) with
      | Core.Certifier.Commit _ -> ()
      | _ -> Alcotest.fail "clean writer aborted after failover")

(* [[|Int 3|]] and [[|Float 3.0|]] are one row in the store, so two
   concurrent writers of them conflict: whichever index, and whether or
   not the writesets carry the group's ids, the second one aborts. *)
let test_int_float_keys_conflict () =
  List.iter
    (fun (config, interned) ->
      with_certifier ~config (fun c ->
          let intern = if interned then Some (Core.Certifier.intern c) else None in
          (match
             Core.Certifier.certify c ~origin:0 ~snapshot:0
               ~ws:(ws_at ?intern "t" (Storage.Value.Int 3))
           with
          | Core.Certifier.Commit _ -> ()
          | _ -> Alcotest.fail "first writer aborted");
          match
            Core.Certifier.certify c ~origin:1 ~snapshot:0
              ~ws:(ws_at ?intern "t" (Storage.Value.Float 3.0))
          with
          | Core.Certifier.Abort -> ()
          | _ -> Alcotest.fail "concurrent float-key writer of the same row certified"))
    [
      (keyed_config, true); (keyed_config, false); (linear_config, true);
      (linear_config, false);
    ]

(* --- Linear ≡ Keyed differential property ----------------------------- *)

type op =
  | Certify of int * Storage.Value.t * int  (* origin, key, staleness *)
  | Truncate of int  (* keep the last [window] versions *)
  | Failover

let pp_op = function
  | Certify (o, k, s) -> Printf.sprintf "Certify(%d,%s,%d)" o (Storage.Value.to_string k) s
  | Truncate w -> Printf.sprintf "Truncate(%d)" w
  | Failover -> "Failover"

(* Drive one certifier through the op stream and record every decision
   (with its assigned version) plus the post-run log/index state.
   [~interned:true] builds each writeset against the certifier group's
   intern table, exercising the cached dense-id fast path; [false]
   submits bare (foreign) writesets that the certifier must re-resolve
   per probe. The two must be indistinguishable in every decision. *)
let run_ops ?(interned = false) ~index ops =
  let config =
    { small_config with Core.Config.cert_index = index; certifier_standbys = 1 }
  in
  let out = ref [] in
  with_certifier ~config (fun c ->
      let ws_for key =
        if interned then ws_at ~intern:(Core.Certifier.intern c) "t" key else ws_at "t" key
      in
      List.iter
        (fun op ->
          match op with
          | Certify (origin, key, staleness) ->
            let snapshot = max 0 (Core.Certifier.version c - staleness) in
            (match Core.Certifier.certify c ~origin ~snapshot ~ws:(ws_for key) with
            | Core.Certifier.Commit { version; _ } ->
              out := Printf.sprintf "C%d" version :: !out
            | Core.Certifier.Abort -> out := "A" :: !out
            | Core.Certifier.Overloaded | Core.Certifier.Expired ->
              Alcotest.fail "unexpected overload decision")
          | Truncate window ->
            Core.Certifier.prune c
              ~keep_after:(max 0 (Core.Certifier.version c - window))
          | Failover ->
            let deposed = Core.Certifier.primary_index c in
            Core.Certifier.crash c;
            Core.Certifier.failover c;
            (* The deposed member rejoins as a standby, so later
               failovers always have a promotion candidate. *)
            Core.Certifier.revive_node c deposed)
        ops;
      out :=
        Printf.sprintf "base=%d v=%d" (Core.Certifier.log_base c)
          (Core.Certifier.version c)
        :: !out);
  List.rev !out

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 10,
          map3
            (fun o k s -> Certify (o, k, s))
            (int_bound 2)
            (* Integral-float keys name the same rows as the ints. *)
            (oneof
               [
                 map (fun k -> Storage.Value.Int k) (int_bound 15);
                 map (fun k -> Storage.Value.Float (float_of_int k)) (int_bound 15);
               ])
            (int_bound 30) );
        (1, map (fun w -> Truncate w) (int_bound 8));
        (1, return Failover);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

let prop_linear_equals_keyed =
  QCheck.Test.make ~count:60 ~name:"Linear and Keyed decide identically" ops_arb
    (fun ops ->
      run_ops ~index:Core.Config.Linear ops = run_ops ~index:Core.Config.Keyed ops)

(* The raw-speed pass differential: the interned dense-id index must be
   a pure representation change. All four arms — {Linear, Keyed} ×
   {interned, foreign} writesets — produce the identical decision/version
   stream across random workloads, truncation, and failover mid-stream. *)
let prop_interned_is_representation_only =
  QCheck.Test.make ~count:60
    ~name:"interned ids change no decision (vs Linear oracle and foreign keyed)" ops_arb
    (fun ops ->
      let oracle = run_ops ~interned:false ~index:Core.Config.Linear ops in
      run_ops ~interned:true ~index:Core.Config.Keyed ops = oracle
      && run_ops ~interned:false ~index:Core.Config.Keyed ops = oracle
      && run_ops ~interned:true ~index:Core.Config.Linear ops = oracle)

(* --- watermarks and GC ------------------------------------------------ *)

let test_watermark_tracking_and_gc () =
  let config = { keyed_config with Core.Config.watermark_slack = 2 } in
  with_certifier ~config (fun c ->
      Core.Certifier.subscribe c ~replica:0 (fun ~epoch:_ _ -> ());
      Core.Certifier.subscribe c ~replica:1 (fun ~epoch:_ _ -> ());
      for i = 1 to 10 do
        match
          Core.Certifier.certify c ~applied:(i - 1) ~origin:0 ~snapshot:(i - 1)
            ~ws:(ws_on "t" i)
        with
        | Core.Certifier.Commit _ -> ()
        | _ -> Alcotest.fail "unexpected abort"
      done;
      (* Origin 0 piggybacked applied = 9 on its last request; replica 1
         has only acked what we tell it. *)
      Alcotest.(check int) "piggybacked watermark" 9
        (Core.Certifier.watermark c ~replica:0);
      Core.Certifier.ack c ~replica:1 ~version:6;
      Core.Certifier.ack c ~replica:1 ~version:4;  (* stale ack: no regression *)
      Alcotest.(check int) "acked watermark" 6 (Core.Certifier.watermark c ~replica:1);
      Alcotest.(check int) "cluster-wide minimum" 6 (Core.Certifier.min_watermark c);
      Core.Certifier.gc c;
      (* min live watermark 6, slack 2: log covers (4, 10]. *)
      Alcotest.(check int) "log truncated to min - slack" 4 (Core.Certifier.log_base c);
      Alcotest.(check int) "index pruned with the log" 6 (Core.Certifier.index_size c);
      (* A crashed replica's frozen watermark must stop holding GC back. *)
      Core.Certifier.mark_down c ~replica:1;
      Core.Certifier.gc c;
      Alcotest.(check int) "GC follows live replicas only" 7
        (Core.Certifier.log_base c))

let test_gc_noop_without_live_replicas () =
  with_certifier ~config:keyed_config (fun c ->
      for i = 1 to 5 do
        ignore (Core.Certifier.certify c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i))
      done;
      Core.Certifier.gc c;
      Alcotest.(check int) "nothing heard from, nothing truncated" 0
        (Core.Certifier.log_base c))

(* --- load balancer: watermark-bounded session table ------------------- *)

let test_lb_prune_sessions () =
  let lb = Core.Load_balancer.create small_config ~mode:Core.Consistency.Session in
  for sid = 0 to 99 do
    Core.Load_balancer.note_commit_ack lb ~sid ~version:(sid + 1) ~tables_written:[ "t" ]
  done;
  Alcotest.(check int) "one entry per session" 100 (Core.Load_balancer.session_count lb);
  Core.Load_balancer.prune_sessions lb ~applied_min:60;
  Alcotest.(check int) "entries <= watermark dropped" 40
    (Core.Load_balancer.session_count lb);
  (* A pruned session falls back to version 0: same (no) wait as an
     entry below the cluster-wide applied minimum. *)
  Alcotest.(check int) "pruned session imposes no wait" 0
    (Core.Load_balancer.session_version lb ~sid:3);
  Alcotest.(check int) "surviving session keeps its version" 77
    (Core.Load_balancer.session_version lb ~sid:76)

let test_session_table_bounded_in_cluster () =
  (* Session-id churn: 150 one-shot sessions each commit one update
     through a cluster whose GC loop is live. The watermark hook must
     keep the session table from retaining all of them, and once every
     replica has applied everything the table drains to empty. *)
  let params = { Workload.Microbench.tables = 2; rows = 50; update_types = 2 } in
  let config =
    {
      small_config with
      Core.Config.gc_interval_ms = 200.0;
      watermark_slack = 5;
      record_log = false;
    }
  in
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Session
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  let update sid key =
    Core.Transaction.make ~profile:"upd"
      [
        Storage.Query.Update_key
          {
            table = "t00";
            key = [| Storage.Value.Int key |];
            set = [ ("val", Storage.Expr.(Col 1 + i 1)) ];
          };
      ]
    |> fun req -> ignore (Core.Cluster.submit cluster ~sid req)
  in
  Sim.Process.spawn (Core.Cluster.engine cluster) (fun () ->
      for sid = 0 to 149 do
        update sid (sid mod 50)
      done);
  (* Long enough for all 150 sequential transactions plus refresh
     application and several GC ticks after the last commit. *)
  Core.Cluster.run_for cluster ~warmup_ms:0.0 ~measure_ms:30_000.0;
  let lb = Core.Cluster.load_balancer cluster in
  let certifier = Core.Cluster.certifier cluster in
  Alcotest.(check bool) "all sessions committed" true
    (Core.Certifier.version certifier >= 150);
  Alcotest.(check int) "session table drained behind the watermark" 0
    (Core.Load_balancer.session_count lb)

let suites =
  [
    ( "core.certindex",
      [
        Alcotest.test_case "index tracks last writer per key" `Quick
          test_index_tracks_last_writer;
        Alcotest.test_case "linear oracle conflict window" `Quick
          test_linear_oracle_conflict_window;
        Alcotest.test_case "prune drops index entries" `Quick
          test_prune_drops_index_entries;
        Alcotest.test_case "failover rebuilds index from the log" `Quick
          test_failover_rebuilds_index;
        Alcotest.test_case "int and float keys conflict" `Quick test_int_float_keys_conflict;
        QCheck_alcotest.to_alcotest prop_linear_equals_keyed;
        QCheck_alcotest.to_alcotest prop_interned_is_representation_only;
      ] );
    ( "core.watermarks",
      [
        Alcotest.test_case "tracking and watermark-driven GC" `Quick
          test_watermark_tracking_and_gc;
        Alcotest.test_case "GC is a no-op with no live replicas" `Quick
          test_gc_noop_without_live_replicas;
        Alcotest.test_case "load balancer prunes session versions" `Quick
          test_lb_prune_sessions;
        Alcotest.test_case "session table bounded under sid churn" `Quick
          test_session_table_bounded_in_cluster;
      ] );
  ]
