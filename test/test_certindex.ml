(* The keyed certification index: unit tests for index maintenance
   (commit, prune, rebuild on promotion, log contiguity), QCheck
   properties checking every index decision against the paper's log
   scan (the Linear oracle, which lives only here) across randomized
   workloads with log truncation, index rebuilds and reconciliation —
   on the simulator-free core and through the whole certifier group
   with automatic promotions mid-stream — watermark-driven log GC, and
   the load balancer's watermark-bounded session table. *)

module Log = Core.Certification.Log
module Index = Core.Certification.Index

let small_config =
  {
    Core.Config.default with
    replicas = 3;
    seed = 7;
    gc_interval_ms = 0.0;
    hiccup_interval_ms = 0.0;
  }

(* A group of three that promotes a standby on its own when the primary
   goes silent (two standbys: an election needs a majority of the
   caught-up voters, and a crashed primary never grants). *)
let group_config =
  Core.Config.hardened { small_config with Core.Config.certifier_standbys = 2 }

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
  Helpers.run_process engine (fun () -> f engine certifier)

(* Crash the primary and block until the failure detectors promoted a
   standby; the deposed member then rejoins as a standby and the group
   settles, so a later failover again has a caught-up candidate. *)
let failover engine c =
  let deposed = Core.Certifier.primary_index c in
  Core.Certifier.crash c;
  Test_certha.await_promotion engine c;
  Core.Certifier.revive_node c deposed;
  Sim.Process.sleep engine 50.0

(* --- index maintenance ------------------------------------------------ *)

let test_index_tracks_last_writer () =
  with_certifier (fun _engine c ->
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

let test_prune_drops_index_entries () =
  with_certifier (fun _engine c ->
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
  with_certifier ~config:group_config (fun engine c ->
      for i = 1 to 8 do
        match Core.Certifier.certify c ~origin:0 ~snapshot:(i - 1) ~ws:(ws_on "t" i) with
        | Core.Certifier.Commit _ -> ()
        | _ -> Alcotest.fail "unexpected abort"
      done;
      Core.Certifier.prune c ~keep_after:3;
      Core.Certifier.crash c;
      Test_certha.await_promotion engine c;
      (* The promoted standby rebuilt the index from its replicated log
         copy: only post-horizon entries, same decisions as before. *)
      Alcotest.(check int) "rebuilt from the log suffix" 5 (Core.Certifier.index_size c);
      (match Core.Certifier.certify c ~origin:0 ~snapshot:5 ~ws:(ws_on "t" 7) with
      | Core.Certifier.Abort -> ()
      | _ -> Alcotest.fail "conflict lost across failover");
      match Core.Certifier.certify c ~origin:0 ~snapshot:8 ~ws:(ws_on "t" 2) with
      | Core.Certifier.Commit _ -> ()
      | _ -> Alcotest.fail "clean writer aborted after failover")

(* --- the certification core, no engine --------------------------------- *)

let logged_keys log =
  List.map
    (fun (v, ws) -> (v, List.map (fun (_, key) -> key) (Storage.Writeset.keys ws)))
    (Log.entries log ~after:(Log.base log) ~upto:(Log.head log))

(* Replication appends are contiguity-checked: a push entry that is not
   the head's successor — a gap or a duplicate — is dropped, never
   logged at the wrong version. *)
let test_append_contiguity () =
  let log = Log.create () in
  Log.append_at log 1 (ws_on "t" 1);
  Log.append_at log 3 (ws_on "t" 3);
  Log.append_at log 1 (ws_on "t" 9);
  Log.append_at log 2 (ws_on "t" 2);
  Alcotest.(check int) "head after the contiguous run" 2 (Log.head log);
  Alcotest.(check bool) "gap and duplicate dropped" true
    (logged_keys log
    = [ (1, [ [| Storage.Value.Int 1 |] ]); (2, [ [| Storage.Value.Int 2 |] ]) ])

(* [[|Int 3|]] and [[|Float 3.0|]] are one row in the store, so two
   concurrent writers of them conflict: whether or not the writesets
   carry the group's ids, the second one aborts. *)
let test_int_float_keys_conflict () =
  List.iter
    (fun interned ->
      with_certifier (fun _engine c ->
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
    [ true; false ]

(* --- Keyed decisions against the Linear oracle ------------------------- *)

type op =
  | Certify of Storage.Value.t * int  (* key, staleness *)
  | Prune of int  (* keep the last [window] versions *)
  | Rebuild  (* what a promotion does: replay the index from the log *)
  | Reconcile of int  (* what a rejoin does: drop the newest [depth] versions *)

let pp_op = function
  | Certify (k, s) -> Printf.sprintf "Certify(%s,%d)" (Storage.Value.to_string k) s
  | Prune w -> Printf.sprintf "Prune(%d)" w
  | Rebuild -> "Rebuild"
  | Reconcile d -> Printf.sprintf "Reconcile(%d)" d

(* The paper's first-committer-wins rule as a scan of the retained log
   [(base, head]]: [ws] at [snapshot] aborts iff the snapshot predates
   the pruned horizon, or some entry committed after it writes a key of
   [ws]; a commit gets version [head + 1]. The certifier decides the
   same thing by probing its key index. *)
let linear_oracle ~base ~head ~entries ~snapshot ws =
  if
    snapshot < base
    || List.exists
         (fun (v, ws') -> v > snapshot && Storage.Writeset.conflicts ws ws')
         entries
  then "A"
  else Printf.sprintf "C%d" (head + 1)

(* Record one [Certify] decision; a disagreement with the oracle is
   recorded as a [MISMATCH] entry beside it. *)
let note out op ~expected ~decided =
  out := decided :: !out;
  if decided <> expected then
    out :=
      Printf.sprintf "MISMATCH(%s: oracle %s, index %s)" (pp_op op) expected decided :: !out

let key_of ~interned ~intern key =
  if interned then ws_at ~intern "t" key else ws_at "t" key

(* Drive the certification core through the op stream, with no engine,
   and record every decision (with its assigned version) plus the
   post-run log state. [~interned:true] builds each writeset against
   the index's intern table, exercising the cached dense-id fast path;
   [false] submits bare (foreign) writesets that the index must
   re-resolve per probe. The two must be indistinguishable in every
   decision. *)
let run_core ?(interned = false) ops =
  let log = Log.create () and index = Index.create () in
  let out = ref [] in
  List.iter
    (fun op ->
      match op with
      | Certify (key, staleness) ->
        let base = Log.base log and head = Log.head log in
        let snapshot = max 0 (head - staleness) in
        let ws = key_of ~interned ~intern:(Index.intern index) key in
        let expected =
          linear_oracle ~base ~head
            ~entries:(Log.entries log ~after:base ~upto:head)
            ~snapshot ws
        in
        let decided =
          match Core.Certification.decide ~record:true log index ~snapshot ws with
          | Some v -> Printf.sprintf "C%d" v
          | None -> "A"
        in
        note out op ~expected ~decided
      | Prune window ->
        let keep_after = max 0 (Log.head log - window) in
        Log.prune log ~keep_after;
        Index.prune index ~keep_after
      | Rebuild -> Index.rebuild index log
      | Reconcile depth ->
        Log.truncate log ~upto:(max 0 (Log.head log - depth));
        Index.rebuild index log)
    ops;
  out := Printf.sprintf "base=%d v=%d" (Log.base log) (Log.head log) :: !out;
  List.rev !out

(* The same stream through a whole certifier group: [Rebuild] and
   [Reconcile] — the two halves of a failover — become one, with the
   primary crashed, a standby promoted by the failure detectors (it
   rebuilds the index from its replicated log copy), and the deposed
   member rejoining (it reconciles its log). *)
let run_group ops =
  let out = ref [] in
  with_certifier ~config:group_config (fun engine c ->
      List.iter
        (fun op ->
          match op with
          | Certify (key, staleness) ->
            let base = Core.Certifier.log_base c and head = Core.Certifier.version c in
            let snapshot = max 0 (head - staleness) in
            let ws = key_of ~interned:true ~intern:(Core.Certifier.intern c) key in
            let expected =
              linear_oracle ~base ~head
                ~entries:(Core.Certifier.node_log c (Core.Certifier.primary_index c))
                ~snapshot ws
            in
            let decided =
              match Core.Certifier.certify c ~origin:0 ~snapshot ~ws with
              | Core.Certifier.Commit { version; _ } -> Printf.sprintf "C%d" version
              | Core.Certifier.Abort -> "A"
              | Core.Certifier.Overloaded | Core.Certifier.Expired ->
                Alcotest.fail "unexpected overload decision"
            in
            note out op ~expected ~decided
          | Prune window ->
            Core.Certifier.prune c ~keep_after:(max 0 (Core.Certifier.version c - window))
          | Rebuild | Reconcile _ -> failover engine c)
        ops;
      out :=
        Printf.sprintf "base=%d v=%d" (Core.Certifier.log_base c) (Core.Certifier.version c)
        :: !out);
  List.rev !out

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 10,
          map2
            (fun k s -> Certify (k, s))
            (* Integral-float keys name the same rows as the ints. *)
            (oneof
               [
                 map (fun k -> Storage.Value.Int k) (int_bound 15);
                 map (fun k -> Storage.Value.Float (float_of_int k)) (int_bound 15);
               ])
            (int_bound 30) );
        (1, map (fun w -> Prune w) (int_bound 8));
        (1, return Rebuild);
        (1, map (fun d -> Reconcile d) (int_bound 8));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

let agrees_with_oracle out =
  match List.filter (String.starts_with ~prefix:"MISMATCH") out with
  | [] -> true
  | ms -> QCheck.Test.fail_reportf "%s" (String.concat "\n" ms)

let prop_linear_equals_keyed =
  QCheck.Test.make ~count:60 ~name:"Linear and Keyed decide identically" ops_arb
    (fun ops -> agrees_with_oracle (run_core ops))

(* The raw-speed pass differential: the interned dense-id index must be
   a pure representation change. Both arms — interned and foreign
   writesets — agree with the Linear oracle on every decision and
   produce the identical decision/version stream across random
   workloads, truncation, rebuilds and reconciliation. *)
let prop_interned_is_representation_only =
  QCheck.Test.make ~count:60
    ~name:"interned ids change no decision (vs Linear oracle and foreign keyed)" ops_arb
    (fun ops ->
      let foreign = run_core ~interned:false ops in
      let interned = run_core ~interned:true ops in
      agrees_with_oracle foreign && agrees_with_oracle interned && interned = foreign)

let prop_group_matches_oracle =
  QCheck.Test.make ~count:20
    ~name:"certifier group decides as the Linear oracle across promotions" ops_arb
    (fun ops -> agrees_with_oracle (run_group ops))

(* --- watermarks and GC ------------------------------------------------ *)

let test_watermark_tracking_and_gc () =
  let config = { small_config with Core.Config.watermark_slack = 2 } in
  with_certifier ~config (fun _engine c ->
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
  with_certifier (fun _engine c ->
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
        Alcotest.test_case "prune drops index entries" `Quick
          test_prune_drops_index_entries;
        Alcotest.test_case "failover rebuilds index from the log" `Quick
          test_failover_rebuilds_index;
        Alcotest.test_case "int and float keys conflict" `Quick test_int_float_keys_conflict;
        Alcotest.test_case "append_at keeps the log contiguous" `Quick test_append_contiguity;
        QCheck_alcotest.to_alcotest prop_linear_equals_keyed;
        QCheck_alcotest.to_alcotest prop_interned_is_representation_only;
        QCheck_alcotest.to_alcotest prop_group_matches_oracle;
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
