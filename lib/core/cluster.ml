let log_src =
  Logs.Src.create "repro.cluster" ~doc:"Transaction flow through the replicated cluster"

module Log = (val Logs.src_log log_src)

type probe_kind = Gauge | Total

type probe = { name : string; kind : probe_kind; read : unit -> float }

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  rng : Util.Rng.t;
  network : Sim.Network.t;
  faults : Sim.Faults.t option;
  certifier : Certifier.t;
  lbs : Load_balancer.t array;
      (* instance 0 is the initially active LB; instance 1 (present only
         under [Config.lb_standby]) is the hot standby *)
  mutable lb_active : int;  (* instance clients currently route to *)
  mutable lb_epoch : int;  (* routing epoch; bumped by every takeover *)
  mutable lb_takeovers : int;
  mutable lb_fenced : int;  (* stale-LB-epoch pushes and relays rejected *)
  replicas : Replica.t array;
  metrics : Metrics.t;
  obs : Obs.Trace.t option;
  mutable probes : probe array;
      (* filled once the record exists, since the readers close over it *)
  shed_tids : (int, unit) Hashtbl.t;
      (* every tid refused with [Transaction.Overloaded] (the [txn.shed]
         total) — the chaos zombie-commit checker asserts none of them
         appears in the commit log; empty without [Config.overload_protection] *)
  mutable deadline_expired : int;
  mutable budget_exhausted : int;  (* transactions given up on an empty retry budget *)
  mutable next_tid : int;
  log : Check.Runlog.Sink.t;  (* flat append-order store of commit records *)
  mutable reprovisions : int;
      (* replicas re-seeded by state transfer after the failure detector
         saw them return from beyond log repair *)
}

let request_bytes (req : Transaction.request) =
  (* A rough wire estimate: statements travel as prepared-statement ids
     plus parameters. *)
  64 + (List.length req.Transaction.statements * 48)

let active_lb t = t.lbs.(t.lb_active)

let role t k = Load_balancer.role t.lbs.(k)

(* Protocol timers (docs/TUNING.md, "Fixed protocol timings"). A loss
   costs [rto_ms], a few LAN round trips. After [max_retransmits] a
   request leg aborts with [Timeout], turning a partition into a retry
   elsewhere; at 1% loss eight drops in a row never happen. Three
   heartbeats fit in the LB's suspicion window, and repair runs just
   over one heartbeat apart, so a fresh held version lands between any
   two scans. The
   LB state push bounds the floor tail a takeover rebuilds; five missed
   pushes trigger one, and a false takeover is epoch-fenced. *)
let rto_ms = 2.0
let max_retransmits = 8
let heartbeat_ms = 25.0
let retransmit_ms = 30.0
let lb_repl_ms = 5.0
let lb_suspect_after_ms = 25.0

(* The testbed's gigabit LAN (DESIGN.md §2), and the balancer's cost per
   relayed message, so it is not an infinite-capacity oracle. *)
let net_base_ms = 0.15
let net_jitter_ms = 0.1
let net_bandwidth_mbps = 1000.0
let lb_ms = 0.05

(* Network endpoint of LB instance [k]. *)
let lb_node k = if k = 0 then Config.node_lb else Config.node_lb_standby

(* Ground-truth replica liveness (crash/recover) is fed to every LB
   instance: the standby must not take over with a stale live-set. *)
let each_lb t f = Array.iter f t.lbs

let lb_sum t f = Array.fold_left (fun acc lb -> acc + f lb) 0 t.lbs

let crash_replica t i =
  each_lb t (fun lb -> Load_balancer.set_live lb ~replica:i false);
  Certifier.mark_down t.certifier ~replica:i;
  Replica.crash t.replicas.(i)

let recover_replica t i =
  let r = t.replicas.(i) in
  (* A replica evicted from the certifier's watermark table lost its
     position in the refresh stream: rejoin is forced through state
     transfer even if the log happens to retain its suffix. *)
  let replay =
    if Certifier.needs_state_transfer t.certifier ~replica:i then None
    else Certifier.writesets_from t.certifier (Replica.v_local r)
  in
  (match replay with
  | Some missed -> Replica.recover r ~missed
  | None ->
    (* The outage outlived the certifier's pruned log: copy the
       freshest live peer's database, then replay the residual log
       suffix. *)
    let donor =
      Array.fold_left
        (fun best candidate ->
          let id = Replica.id candidate in
          if id <> i && Load_balancer.is_live (active_lb t) ~replica:id then
            match best with
            | Some b when Replica.v_local b >= Replica.v_local candidate -> best
            | Some _ | None -> Some candidate
          else best)
        None t.replicas
    in
    (match donor with
    | None -> failwith "Cluster.recover_replica: no live donor for state transfer"
    | Some donor ->
      Replica.state_transfer r (Replica.database donor);
      let missed =
        Option.value
          (Certifier.writesets_from t.certifier (Replica.v_local r))
          ~default:[]
      in
      Replica.recover r ~missed));
  Certifier.mark_up ~applied:(Replica.v_local r) t.certifier ~replica:i;
  (* Manual recovery counts as contact: without it the detector's next
     sweep would still see [Dead] and mark the replica down again. *)
  each_lb t (fun lb ->
      Load_balancer.note_contact lb ~replica:i ~now:(Sim.Engine.now t.engine));
  (* [Replica.recover] only enqueues the missed suffix; the sequencer
     applies it over virtual time. Routing to the replica before it
     catches up would serve stale snapshots (fatal in eager mode, where
     clients don't wait on a start version), so publish it to the LB
     only once it reaches the certifier's version as of now. New
     commits already wait on it — [mark_up] above re-added it to the
     ack set — so the target is a fixed post. *)
  let target = Certifier.version t.certifier in
  Sim.Process.spawn t.engine (fun () ->
      (match Replica.await_version r target with Ok () | Error _ -> ());
      if not (Replica.is_crashed r) then
        each_lb t (fun lb ->
            Load_balancer.set_live lb ~replica:i true;
            Load_balancer.note_contact lb ~replica:i ~now:(Sim.Engine.now t.engine)))

let crash_certifier t = Certifier.crash t.certifier

let revive_certifier_node t k = Certifier.revive_node t.certifier k

let crash_lb t k =
  if Array.length t.lbs < 2 then
    invalid_arg "Cluster.crash_lb: no standby LB configured (Config.lb_standby)";
  (role t k).crashed <- true

let recover_lb t k =
  let r = role t k in
  r.crashed <- false;
  (* Revival grace: restart the suspicion clock so the instance judges
     its peer from fresh silence, not from the outage it slept through. *)
  r.heard <- Sim.Engine.now t.engine

(* --- the probe table -------------------------------------------------

   Every cluster-level reading is declared here, once. A [Gauge] is an
   instantaneous level; a [Total] is a monotonic source. Three sinks read
   the table: [Metrics] windows every total against a baseline taken at
   [reset_window], the observatory reads each gauge at window close and
   turns each total into a per-window delta ({!start_observatory}), and
   {!pp_catalog} prints both. *)

(* Staleness of replica [r] as the version oracle sees it: how many
   committed versions [v_system] is ahead of the replica's applied
   [v_local]. The observatory's headline consistency gauge. *)
let replica_lag t r =
  Stdlib.max 0 (Load_balancer.v_system (active_lb t) - Replica.v_local r)

let max_lag t =
  Array.fold_left (fun acc r -> Stdlib.max acc (replica_lag t r)) 0 t.replicas

let probe_table t =
  let of_int kind name read = { name; kind; read = (fun () -> float_of_int (read ())) } in
  let gauge = of_int Gauge and total = of_int Total in
  let cpu name r =
    [
      gauge (name ^ ".busy") (fun () -> Sim.Resource.busy r);
      gauge (name ^ ".queue") (fun () -> Sim.Resource.queue_length r);
      { name = name ^ ".util"; kind = Gauge; read = (fun () -> Sim.Resource.utilization r) };
    ]
  in
  let c = t.certifier in
  let per_replica i r =
    let name key = Printf.sprintf "replica%d.%s" i key in
    [
      gauge (name "refresh_queue") (fun () -> Replica.pending_refresh r);
      gauge (name "active_txns") (fun () -> Replica.active_local r);
      gauge (name "v_local") (fun () -> Replica.v_local r);
      gauge (name "lag") (fun () -> replica_lag t r);
      gauge (name "watermark") (fun () -> Certifier.watermark c ~replica:i);
      gauge (name "lb_active") (fun () -> Load_balancer.active (active_lb t) ~replica:i);
    ]
    @ cpu (name "cpu") (Replica.cpu r)
  in
  List.concat (Array.to_list (Array.mapi per_replica t.replicas))
  @ [
      (* Consistency and log gauges. *)
      gauge "v_system" (fun () -> Load_balancer.v_system (active_lb t));
      gauge "replicas.lag.max" (fun () -> max_lag t);
      gauge "refresh_queue.total" (fun () ->
          Array.fold_left (fun acc r -> acc + Replica.pending_refresh r) 0 t.replicas);
      gauge "lb.session_floors" (fun () -> Load_balancer.session_count (active_lb t));
      gauge "certifier.log_size" (fun () -> Certifier.log_size c);
      gauge "certifier.log_base" (fun () -> Certifier.log_base c);
      gauge "certifier.watermark.min" (fun () -> Certifier.min_watermark c);
      gauge "certifier.index_size" (fun () -> Certifier.index_size c);
      gauge "certifier.epoch" (fun () -> Certifier.current_epoch c);
      gauge "certifier.standby_lag" (fun () -> Certifier.standby_lag c);
      gauge "lb.epoch" (fun () -> t.lb_epoch);
      (* Overload levels: the certifier backlog, and the LB admissions,
         which stay zero without [Config.overload_protection]. *)
      gauge "certifier.backlog" (fun () -> Certifier.backlog c);
      gauge "lb.admitted" (fun () -> Load_balancer.admitted (active_lb t));
    ]
  @ cpu "certifier.cpu" (Certifier.cpu c)
  @ [
      total "certifier.decisions" (fun () ->
          let commits, aborts = Certifier.decisions c in
          commits + aborts);
      total "net.retransmits" (fun () -> Sim.Network.retransmits t.network);
      total "certifier.retransmits" (fun () -> Certifier.retransmits c);
      (* Failure detector and HA events. *)
      total "detector.suspect" (fun () -> lb_sum t Load_balancer.suspect_events);
      total "detector.dead" (fun () -> lb_sum t Load_balancer.failover_events);
      total "detector.reprovision" (fun () -> t.reprovisions);
      total "certifier.evictions" (fun () -> Certifier.evictions c);
      total "certifier.promotions" (fun () -> Certifier.promotions c);
      total "certifier.fenced" (fun () -> Certifier.fenced c);
      total "certifier.elections" (fun () -> Certifier.elections c);
      total "certifier.vote_denials" (fun () -> Certifier.vote_denials c);
      total "certifier.lease_expiries" (fun () -> Certifier.lease_expiries c);
      total "lb.takeovers" (fun () -> t.lb_takeovers);
      total "lb.fenced" (fun () -> t.lb_fenced);
      total "lb.cert_fenced" (fun () -> lb_sum t Load_balancer.cert_fenced);
      total "replicas.fenced" (fun () ->
          Array.fold_left (fun acc r -> acc + Replica.fenced_refreshes r) 0 t.replicas);
      (* Overload protection (docs/PROTOCOL.md, "Overload & admission
         control"): zero unless [Config.overload_protection] is on and fires. *)
      total "certifier.shed" (fun () -> Certifier.shed c);
      total "certifier.expired" (fun () -> Certifier.expired c);
      total "txn.shed" (fun () -> Hashtbl.length t.shed_tids);
      total "txn.deadline_expired" (fun () -> t.deadline_expired);
      total "txn.retry_budget_exhausted" (fun () -> t.budget_exhausted);
    ]
  @
  match t.faults with
  | None -> []
  | Some f ->
    [
      total "fault.drops" (fun () -> Sim.Faults.drops f);
      total "fault.duplicates" (fun () -> Sim.Faults.duplicates f);
      total "fault.delays" (fun () -> Sim.Faults.delays f);
    ]

(* --- per-role wiring ------------------------------------------------- *)

(* Replica databases and the certifier log are vacuumed every
   [gc_interval_ms]. Each replica keeps [gc_window] row versions behind
   its own applied version, the certifier's [watermark_slack], so a
   snapshot the certifier can still check is still readable. *)
let gc_window = 1_000

let start_gc t =
  Sim.Process.every t.engine ~period:t.cfg.Config.gc_interval_ms (fun () ->
      (* Vacuum each replica behind its own applied version: any live
         snapshot there is at most [gc_window] versions old. *)
      Array.iter
        (fun r ->
          let keep_after = max 0 (Replica.v_local r - gc_window) in
          ignore (Storage.Database.gc (Replica.database r) ~keep_after))
        t.replicas;
      (* Truncate certifier log + index behind the slowest live
         replica's applied watermark (piggybacked on cert/ack traffic —
         no omniscient peek at replica state); a replica that stays down
         longer than the slack recovers by state transfer instead of log
         replay. *)
      Certifier.gc t.certifier;
      (* The all-replica minimum watermark (crashed included) is a
         permanent floor on applied versions: session-version entries at
         or below it impose no wait and can go — on the standby too,
         which mirrors them via state pushes. *)
      Array.iter
        (fun lb ->
          Load_balancer.prune_sessions lb ~applied_min:(Certifier.min_watermark t.certifier))
        t.lbs)

(* Replica heartbeats: liveness + cumulative applied watermark, to both
   the failure detector (LB) and the certifier, over the lossy network —
   a lost heartbeat is just silence until the next one. *)
let start_heartbeat t r =
  let id = Replica.id r in
  Sim.Process.every t.engine ~period:heartbeat_ms (fun () ->
      if not (Replica.is_crashed r) then begin
        let v = Replica.v_local r and held = Replica.held r in
        (* Addressed to whichever instance holds the routing role when
           the heartbeat leaves; applied to whichever holds it when it
           lands (both truthful piggybacks). *)
        Sim.Network.send t.network ~src:id ~dst:(lb_node t.lb_active) ~size_bytes:16
          (fun () ->
            let lb = active_lb t in
            Load_balancer.note_contact lb ~replica:id ~now:(Sim.Engine.now t.engine);
            (* The heartbeat carries the applied watermark as of send
               time — same payload the certifier gets, so the 16-byte
               message covers both piggybacks. *)
            Load_balancer.note_applied lb ~replica:id ~version:v);
        Sim.Network.send t.network ~src:id ~dst:(Certifier.primary_net t.certifier)
          ~size_bytes:16 (fun () -> Certifier.heartbeat t.certifier ~replica:id ~applied:v ~held)
      end)

(* Failure-detector sweep + certifier live-set reconciliation. *)
let sweep t =
  let certifier = t.certifier in
  let lb = active_lb t in
  Load_balancer.sweep lb ~now:(Sim.Engine.now t.engine);
  Array.iter
    (fun r ->
      let id = Replica.id r in
      match Load_balancer.health lb ~replica:id with
      | Load_balancer.Dead ->
        if Certifier.is_marked_live certifier ~replica:id then
          (* Stop gating eager commit and log GC on a corpse; a
             wrongly-declared death heals on next contact. *)
          Certifier.mark_down certifier ~replica:id
      | Load_balancer.Suspect -> ()
      | Load_balancer.Alive ->
        if
          (not (Replica.is_crashed r))
          && Load_balancer.is_live lb ~replica:id
          && not (Certifier.is_marked_live certifier ~replica:id)
        then
          if
            Certifier.needs_state_transfer certifier ~replica:id
            || Certifier.log_base certifier > Replica.v_local r
          then begin
            (* Back in contact but beyond log repair (evicted, or the log
               was truncated past its position): reprovision via
               state transfer. *)
            t.reprovisions <- t.reprovisions + 1;
            crash_replica t id;
            recover_replica t id
          end
          else
            (* Plain rejoin: repair resends the missing suffix. *)
            Certifier.mark_up ~applied:(Replica.v_local r) certifier ~replica:id)
    t.replicas

(* --- LB state replication and takeover (docs/PROTOCOL.md, "Control
   plane"). The instance that believes itself active pushes a snapshot
   of its routing state every [lb_repl_ms] over the lossy network; the
   push doubles as the liveness heartbeat. A standby that hears nothing
   for [lb_suspect_after_ms] promotes itself: it bumps the routing
   epoch, reconstructs a conservative version floor by probing live
   replicas and the certifier, and only then starts taking client
   traffic. A deposed instance that keeps pushing is fenced by the epoch
   at every receiver, and learns of its own deposition from the
   successor's higher-epoch pushes. *)

(* The replicated [V_system] covers everything the deposed LB acked at
   least one push period ago; probing live replicas (applied versions)
   and the certifier (released head) covers the final window, because
   every client-acked commit was applied at its origin replica before
   the ack left. An unreachable node forfeits its probe after the
   bounded retransmission budget — takeover must not block on the very
   failure it is healing. *)
let reconstruct_floor t k =
  let floor = ref (Load_balancer.v_system t.lbs.(k)) in
  let probe ~dst read =
    match
      Sim.Network.transfer_bounded t.network ~src:(lb_node k) ~dst ~size_bytes:16
        ~max_tries:max_retransmits
    with
    | Error `Timeout -> ()
    | Ok () -> (
      let v = read () in
      match
        Sim.Network.transfer_bounded t.network ~src:dst ~dst:(lb_node k) ~size_bytes:16
          ~max_tries:max_retransmits
      with
      | Ok () -> if v > !floor then floor := v
      | Error `Timeout -> ())
  in
  Array.iter
    (fun r ->
      if not (Replica.is_crashed r) then probe ~dst:(Replica.id r) (fun () -> Replica.v_local r))
    t.replicas;
  if not (Certifier.is_crashed t.certifier) then
    probe ~dst:(Certifier.primary_net t.certifier) (fun () -> Certifier.version t.certifier);
  !floor

(* State push, run in the active role only. *)
let push_state t k =
  let lb = t.lbs.(k) and me = role t k in
  let other = 1 - k in
  let peer = role t other in
  if me.self_active && not me.crashed then begin
    let st = Load_balancer.capture lb in
    let push_epoch = me.self_epoch in
    Sim.Network.send t.network ~src:(lb_node k) ~dst:(lb_node other)
      ~size_bytes:(Load_balancer.state_bytes st + 16)
      (fun () ->
        if not peer.crashed then
          if push_epoch < peer.self_epoch then
            (* A deposed active that has not yet learned of the
               takeover: fence the push. *)
            t.lb_fenced <- t.lb_fenced + 1
          else begin
            (* The sender claims the active role at our epoch or later:
               we are the standby. *)
            peer.self_active <- false;
            peer.self_epoch <- push_epoch;
            Load_balancer.absorb t.lbs.(other) st;
            peer.heard <- Sim.Engine.now t.engine
          end)
  end

(* Takeover monitor, run in the standby role only. *)
let monitor_peer t k =
  let lb = t.lbs.(k) and me = role t k in
  let now = Sim.Engine.now t.engine in
  if (not me.self_active) && (not me.crashed) && now -. me.heard > lb_suspect_after_ms
  then begin
    let epoch =
      1 + Stdlib.max t.lb_epoch (Stdlib.max (role t 0).self_epoch (role t 1).self_epoch)
    in
    me.self_epoch <- epoch;
    me.self_active <- true;
    (* Detector grace: the standby never received contacts directly, so
       seed last-contact now or its first sweep would declare every
       replica dead at once. *)
    Array.iter (fun r -> Load_balancer.note_contact lb ~replica:(Replica.id r) ~now) t.replicas;
    let floor = reconstruct_floor t k in
    Load_balancer.note_takeover lb ~floor;
    (* Routing flips last: clients only reach the successor once its
       floors are installed. *)
    t.lb_epoch <- epoch;
    t.lb_active <- k;
    t.lb_takeovers <- t.lb_takeovers + 1;
    Log.info (fun m ->
        m "[%.3f] LB instance %d took over routing (epoch %d, floor v%d)"
          (Sim.Engine.now t.engine) k epoch floor);
    me.heard <- Sim.Engine.now t.engine
  end

let create ?(config = Config.default) ?(tracing = false) ?(trace_capacity = 65_536)
    ?faults ~mode ~schemas ~load () =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
  let engine = Sim.Engine.create () in
  (* The cluster owns the engine, so it also owns the trace context. *)
  let obs = if tracing then Some (Obs.Trace.create ~capacity:trace_capacity engine) else None in
  let rng = Util.Rng.create config.Config.seed in
  let metrics = Metrics.create engine in
  let network =
    Sim.Network.create engine ~rto_ms ~rng:(Util.Rng.split rng)
      ~base_ms:net_base_ms ~jitter_ms:net_jitter_ms ~bandwidth_mbps:net_bandwidth_mbps
  in
  (* The fault plan owns its own RNG (seeded independently of the cluster
     RNG chain), so attaching an all-clean plan perturbs nothing. *)
  let faults = Option.map (fun build -> (build engine : Sim.Faults.t)) faults in
  (match faults with Some f -> Sim.Network.set_faults network f | None -> ());
  (* One intern table per replication group: every replica database and
     the certifier resolve conflict keys through the same id space, so
     writesets built on any replica carry ids the certifier's index can
     probe directly. *)
  let intern = Storage.Intern.create () in
  let certifier =
    Certifier.create ?obs ~metrics ~intern engine config ~rng:(Util.Rng.split rng)
      ~network ~mode
  in
  let lb0 = Load_balancer.create ~rng:(Util.Rng.split rng) config ~mode in
  let lbs =
    (* The standby instance draws its RNG after the active's, so a run
       without [lb_standby] consumes exactly the classic seed chain. *)
    if config.Config.lb_standby then begin
      let standby = Load_balancer.create ~rng:(Util.Rng.split rng) config ~mode in
      (Load_balancer.role standby).self_active <- false;
      [| lb0; standby |]
    end
    else [| lb0 |]
  in
  (* Version 0 is loaded and validated once; every other replica starts
     from a structural copy, which shares the rows and keeps the bucket
     layout a fresh load would build. *)
  let initial = Storage.Database.create ~intern () in
  List.iter (fun schema -> ignore (Storage.Database.create_table initial schema)) schemas;
  load initial;
  let replicas =
    Array.init config.Config.replicas (fun id ->
        let db = if id = 0 then initial else Storage.Database.copy initial in
        Replica.create ?obs ~metrics engine config ~rng:(Util.Rng.split rng) ~id db)
  in
  (match faults with
  | None -> ()
  | Some f ->
    Certifier.set_faults certifier f;
    Array.iter (fun r -> Replica.set_faults r f) replicas);
  let t =
    {
      engine;
      cfg = config;
      rng;
      network;
      faults;
      certifier;
      lbs;
      lb_active = 0;
      lb_epoch = 0;
      lb_takeovers = 0;
      lb_fenced = 0;
      replicas;
      metrics;
      obs;
      probes = [||];
      shed_tids = Hashtbl.create 64;
      deadline_expired = 0;
      budget_exhausted = 0;
      next_tid = 0;
      log = Check.Runlog.Sink.create ();
      reprovisions = 0;
    }
  in
  Array.iter
    (fun replica ->
      let id = Replica.id replica in
      Certifier.subscribe certifier ~replica:id (fun ~epoch batch ->
          Replica.receive_refresh_batch ~epoch replica batch);
      (* The commit ack goes to the current primary; a heartbeat's
         cumulative watermark covers a lost one. *)
      Replica.set_on_commit replica (fun ~version ->
          Sim.Network.send network ~src:id ~dst:(Certifier.primary_net certifier)
            ~size_bytes:24 (fun () -> Certifier.ack certifier ~replica:id ~version));
      Replica.start replica)
    replicas;
  if config.Config.gc_interval_ms > 0.0 then start_gc t;
  Array.iter (start_heartbeat t) replicas;
  Sim.Process.every engine ~period:Load_balancer.sweep_interval_ms (fun () -> sweep t);
  Sim.Process.every engine ~period:retransmit_ms (fun () -> Certifier.repair_tick certifier);
  if Array.length lbs > 1 then
    for k = 0 to 1 do
      Sim.Process.every engine ~period:lb_repl_ms (fun () -> push_state t k);
      Sim.Process.every engine ~period:lb_repl_ms (fun () -> monitor_peer t k)
    done;
  t.probes <- Array.of_list (probe_table t);
  Array.iter
    (fun p ->
      if p.kind = Total then
        Metrics.add_total metrics p.name (fun () -> int_of_float (p.read ())))
    t.probes;
  t

let engine t = t.engine
let config t = t.cfg
let mode t = Load_balancer.mode (active_lb t)
let metrics t = t.metrics
let certifier t = t.certifier
let load_balancer t = active_lb t
let lb_active_index t = t.lb_active
let lb_epoch t = t.lb_epoch
let lb_is_crashed t k = (role t k).crashed
let lb_takeovers t = t.lb_takeovers
let lb_fenced t = t.lb_fenced
let replica t i = t.replicas.(i)
let rng t = Util.Rng.split t.rng
let trace t = t.obs
let network t = t.network
let faults t = t.faults

(* --- telemetry ----------------------------------------------------- *)

let probes t = Array.to_list t.probes

let pp_catalog ppf t =
  let line name v =
    if Float.is_integer v then Format.fprintf ppf "%-32s %12.0f@," name v
    else Format.fprintf ppf "%-32s %12.3f@," name v
  in
  Format.fprintf ppf "@[<v>";
  Array.iter (fun p -> if p.kind = Gauge then line p.name (p.read ())) t.probes;
  List.iter
    (fun (name, n) -> if n <> 0 then line name (float_of_int n))
    (Metrics.totals t.metrics);
  Format.fprintf ppf "@]"

let note_retry_budget_exhausted t = t.budget_exhausted <- t.budget_exhausted + 1

(* --- the run-health observatory ------------------------------------

   Windowed time series over the whole cluster: transaction outcomes
   stream in through the Metrics outcome observer; the probe table's
   totals become per-window deltas and its gauges are read at each
   window close. Everything here only reads simulation state — no RNG
   draw, no protocol event — so an observed run is bit-identical to a
   blind one. *)

let start_observatory t =
  let ts =
    Obs.Timeseries.create ~window_ms:t.cfg.Config.obs_window_ms t.engine
  in
  (* Outcome stream -> windowed counters + latency distributions. *)
  let c_commit = Obs.Timeseries.counter ts "txn.commit" in
  let c_commit_ro = Obs.Timeseries.counter ts "txn.commit_ro" in
  let c_abort = Obs.Timeseries.counter ts "txn.abort" in
  let d_response = Obs.Timeseries.dist ts "response" in
  let d_stages =
    List.map
      (fun s -> (Metrics.stage_index s, Obs.Timeseries.dist ts ("stage." ^ Metrics.stage_name s)))
      Metrics.stages
  in
  (* Per-read-tier channels (docs/CONSISTENCY.md): commit rate, response
     and served staleness per class. Only materialized when read tiers
     are on, so the exported series of a classic run are unchanged. *)
  let tier_channels =
    if t.cfg.Config.read_tiers then
      List.map
        (fun slug ->
          ( slug,
            Obs.Timeseries.counter ts ("tier." ^ slug ^ ".commit"),
            Obs.Timeseries.dist ts ("tier." ^ slug ^ ".response"),
            Obs.Timeseries.dist ts ("tier." ^ slug ^ ".staleness") ))
        Consistency.all_tier_slugs
    else []
  in
  Metrics.set_observer t.metrics
    (Some
       (fun (o : Metrics.outcome) ->
         if o.Metrics.out_committed then begin
           Obs.Timeseries.bump (if o.Metrics.out_read_only then c_commit_ro else c_commit);
           Obs.Timeseries.observe d_response o.Metrics.out_response_ms;
           List.iter
             (fun (i, d) ->
               let v = o.Metrics.out_stages.(i) in
               if v > 0.0 then Obs.Timeseries.observe d v)
             d_stages;
           if o.Metrics.out_read_only then
             List.iter
               (fun (slug, c, d_resp, d_stale) ->
                 if slug = o.Metrics.out_tier then begin
                   Obs.Timeseries.bump c;
                   Obs.Timeseries.observe d_resp o.Metrics.out_response_ms;
                   Obs.Timeseries.observe d_stale (float_of_int o.Metrics.out_staleness)
                 end)
               tier_channels
         end
         else Obs.Timeseries.bump c_abort));
  (* Probe table -> gauges read at window close, totals as per-window
     deltas. *)
  let delta name read =
    let c = Obs.Timeseries.counter ts name in
    let read () = int_of_float (read ()) in
    let seen = ref (read ()) in
    fun () ->
      let v = read () in
      Obs.Timeseries.bump c ~by:(v - !seen);
      seen := v
  in
  let deltas =
    List.filter_map
      (fun p ->
        match p.kind with
        | Gauge ->
          Obs.Timeseries.add_probe ts ~name:p.name p.read;
          None
        | Total -> Some (delta p.name p.read))
      (probes t)
  in
  Obs.Timeseries.add_pre_close ts (fun () -> List.iter (fun d -> d ()) deltas);
  Obs.Timeseries.start ts;
  ts

let stop_observatory t ts =
  Obs.Timeseries.stop ts;
  Obs.Timeseries.flush ts;
  Metrics.set_observer t.metrics None

(* The checker library mirrors the tier type rather than depending on
   this one; translate at the recording boundary. *)
let runlog_tier = function
  | Consistency.Strong -> Check.Runlog.Strong
  | Consistency.Bounded_staleness { versions; ms } -> Check.Runlog.Bounded { versions; ms }
  | Consistency.Causal -> Check.Runlog.Causal
  | Consistency.Eventual -> Check.Runlog.Eventual

let record_commit t ~tid ~sid ~begin_time ~snapshot ~commit_version ~epoch ~lb_epoch
    ~tier ~table_set ~ws ~trace =
  if t.cfg.Config.record_log then begin
    let entries = Storage.Writeset.entries ws in
    let record =
      {
        Check.Runlog.tid;
        session = sid;
        begin_time;
        ack_time = Sim.Engine.now t.engine;
        snapshot_version = snapshot;
        commit_version;
        epoch;
        lb_epoch;
        tier = runlog_tier tier;
        table_set;
        tables_written = Storage.Writeset.tables ws;
        write_keys =
          List.map
            (fun e ->
              (e.Storage.Writeset.ws_table, Storage.Mvcc.render_key e.Storage.Writeset.ws_key))
            entries;
        trace;
      }
    in
    Check.Runlog.Sink.add t.log record
  end

(* --- the transaction path (§IV) ---------------------------------------

   [submit] is the paper's fixed sequence of stages: route at the LB,
   execute at the replica, certify, commit. Each stage is a top-level
   function over the transaction's [flight] record. A failing stage
   raises [Abort_txn], and [abort] is the one exit: the flight's [stand]
   tells it who answers the client and what bookkeeping to undo. *)

type stand =
  | Unrouted  (* no LB took the request: nothing answers, the client times out *)
  | At_lb  (* the dispatching LB answers the client directly *)
  | At_replica  (* the replica answers through the LB ([relay], [reply]) *)

type flight = {
  tid : int;
  sid : int;
  req : Transaction.request;
  mtxn : Metrics.txn;  (* the stage clock, and the spans when tracing *)
  begin_time : float;
  deadline : float;  (* [infinity] without [Config.overload_protection] *)
  mutable stand : stand;
  mutable lb : int;  (* dispatching LB instance, pinned at the LB hop *)
  mutable lb_epoch : int;  (* routing epoch at the LB hop *)
  mutable admitted : bool;  (* holds an admission slot at [lb] *)
  mutable replica : int;  (* dispatched replica; -1 before dispatch *)
}

exception Abort_txn of Transaction.abort_reason

let abort_with reason = raise_notrace (Abort_txn reason)

let now t = Sim.Engine.now t.engine

(* Request legs carry no server-side side effect yet, so they may give
   up after [max_retransmits] transmissions and surface a Timeout abort
   (the client retries with backoff). *)
let leg t ~src ~dst ~size_bytes =
  match Sim.Network.transfer_bounded t.network ~src ~dst ~size_bytes ~max_tries:max_retransmits with
  | Ok () -> ()
  | Error `Timeout -> abort_with Transaction.Timeout

(* A crashed active LB answers nothing: the client burns its
   retransmission budget and times out (the standby's takeover flips
   routing for later requests). Checked before and after the leg — the
   instance may die while the request is in flight. *)
let check_lb_up t =
  if (role t t.lb_active).crashed then begin
    Sim.Process.sleep t.engine (rto_ms *. float_of_int max_retransmits);
    abort_with Transaction.Timeout
  end

(* An LB outage stalls response relays until the standby takes over or
   the instance revives — response legs are persistent, so they wait
   rather than time out. Never entered without [Config.lb_standby]
   (nothing ever crashes the only LB). *)
let rec await_routable t =
  if (role t t.lb_active).crashed then begin
    Sim.Process.sleep t.engine lb_repl_ms;
    await_routable t
  end

(* Response path: replica -> LB, with the LB's bookkeeping, returning
   the instance authoritative when the relay lands. The dispatching
   instance's active count is balanced even if routing moved on, while
   floors and freshness go to whichever instance is authoritative now,
   so guarantees handed out after a takeover live where the next request
   looks. *)
let relay t f ~ack_bytes =
  (* The response implicitly reports the replica's applied version as of
     send time — free freshness information for the staleness router. *)
  let applied = Replica.v_local t.replicas.(f.replica) in
  (* Response legs are persistent transfers: once the replica holds a
     decision the client-visible outcome must eventually arrive, or a
     committed write would be reported lost. *)
  await_routable t;
  Sim.Network.transfer t.network ~src:f.replica ~dst:(lb_node t.lb_active)
    ~size_bytes:ack_bytes;
  Sim.Process.sleep t.engine lb_ms;
  await_routable t;
  let lb = active_lb t in
  Load_balancer.note_contact lb ~replica:f.replica ~now:(now t);
  Load_balancer.note_applied lb ~replica:f.replica ~version:applied;
  Load_balancer.note_complete t.lbs.(f.lb) ~replica:f.replica;
  if f.lb_epoch < t.lb_epoch then
    (* The dispatching LB was deposed while the transaction ran; the
       relay is re-stamped by the successor. *)
    t.lb_fenced <- t.lb_fenced + 1;
  lb

(* LB -> client. *)
let reply t ~src ~ack_bytes =
  Sim.Network.transfer t.network ~src:(lb_node src) ~dst:Config.node_client
    ~size_bytes:ack_bytes

let release t f = if f.admitted then Load_balancer.release t.lbs.(f.lb)

(* The one abort exit. *)
let abort t f reason =
  (match f.stand with
  | Unrouted -> ()
  | At_lb ->
    (* The replica, if one was picked, never saw the request: undo the
       dispatch count. *)
    if f.replica >= 0 then Load_balancer.note_complete t.lbs.(f.lb) ~replica:f.replica;
    reply t ~src:f.lb ~ack_bytes:32
  | At_replica ->
    Replica.finish_txn t.replicas.(f.replica) ~tid:f.tid;
    ignore (relay t f ~ack_bytes:32);
    reply t ~src:t.lb_active ~ack_bytes:32);
  Log.debug (fun m ->
      m "[%.3f] T%d aborted: %a" (now t) f.tid Transaction.pp_abort_reason reason);
  Metrics.txn_abort f.mtxn
    ~slug:(Transaction.abort_slug reason)
    ~reason:(Format.asprintf "%a" Transaction.pp_abort_reason reason);
  let response_ms = now t -. f.begin_time in
  release t f;
  Transaction.Aborted { reason; response_ms }

(* Refused with a retry-after hint, at the LB before any replica is
   engaged or by the certifier's bounded backlog; the tid is remembered
   so the zombie-commit checker can prove a shed transaction never
   commits. *)
let shed t f =
  Hashtbl.replace t.shed_tids f.tid ();
  abort_with (Transaction.Overloaded { retry_after_ms = Load_balancer.shed_retry_after_ms })

(* Stage: route. Client -> LB, admission, replica choice and start
   version, LB -> replica. Returns the start version. *)
let route t f =
  let req = f.req in
  check_lb_up t;
  leg t ~src:Config.node_client ~dst:(lb_node t.lb_active) ~size_bytes:(request_bytes req);
  check_lb_up t;
  Sim.Process.sleep t.engine lb_ms;
  (* The dispatching instance and routing epoch are pinned here: the
     active count must be balanced on this instance even if a takeover
     happens mid-flight, and the commit record carries the epoch so the
     floor-preservation checker can see across takeovers. *)
  f.stand <- At_lb;
  f.lb <- t.lb_active;
  f.lb_epoch <- t.lb_epoch;
  let lb = t.lbs.(f.lb) in
  (* Overload protection: first the apply-lag governor — when the
     slowest live replica's applied watermark trails [V_system] by more
     than the gap, new writes are refused, since admitting them would
     only stretch the refresh backlog (and every tiered read's
     staleness) further; reads don't grow the backlog and stay admitted
     — then the admission cap. *)
  if t.cfg.Config.overload_protection then begin
    if
      List.exists Storage.Query.is_update req.Transaction.statements
      && Certifier.apply_lag_exceeded t.certifier
    then shed t f;
    if not (Load_balancer.admit lb ~strong:(req.Transaction.tier = Consistency.Strong)) then
      shed t f;
    f.admitted <- true;
    Metrics.note_queue_depth t.metrics (Load_balancer.admitted lb)
  end;
  (* Strong requests take the mode's version oracle; with read tiers
     enabled, a weaker read class is routed by staleness instead — the
     floor comes from the tier, the replica from its applied watermark. *)
  let v_start =
    if t.cfg.Config.read_tiers && req.Transaction.tier <> Consistency.Strong then begin
      let replica, floor =
        Load_balancer.route_read lb ~sid:f.sid ~tier:req.Transaction.tier ~now:(now t)
      in
      f.replica <- replica;
      floor
    end
    else begin
      f.replica <- Load_balancer.choose_replica lb ~sid:f.sid;
      Load_balancer.start_version lb ~sid:f.sid ~table_set:req.Transaction.table_set
    end
  in
  Load_balancer.note_dispatch lb ~replica:f.replica;
  (match Metrics.txn_trace_id f.mtxn with
  | None -> ()
  | Some trace_id ->
    Obs.Trace.instant_opt t.obs ~trace_id ~component:Obs.Span.Load_balancer ~name:"route"
      ~args:[ ("replica", string_of_int f.replica); ("v_start", string_of_int v_start) ]
      ());
  Metrics.txn_locate f.mtxn ~replica:f.replica;
  leg t ~src:(lb_node f.lb) ~dst:f.replica ~size_bytes:(request_bytes req);
  f.stand <- At_replica;
  Log.debug (fun m ->
      m "[%.3f] T%d (session %d, %s) -> replica %d, start version %d" f.begin_time f.tid
        f.sid req.Transaction.profile f.replica v_start);
  v_start

let rec run_statements replica ~tid txn = function
  | [] -> ()
  | stmt :: rest ->
    if Replica.abort_requested replica ~tid then abort_with Transaction.Early_certification;
    if Replica.is_crashed replica then abort_with Transaction.Replica_failure;
    (match Replica.exec_statement replica txn stmt with
    | Storage.Query.Error msg -> abort_with (Transaction.Statement_error msg)
    | Storage.Query.Rows _ | Storage.Query.Affected _ -> ());
    if Storage.Query.is_update stmt && not (Replica.early_certify replica txn) then
      abort_with Transaction.Early_certification;
    run_statements replica ~tid txn rest

(* Stage: execute. Wait for the start version, then run the statements
   on a snapshot. Returns the open transaction. *)
let execute t f ~v_start =
  let replica = t.replicas.(f.replica) in
  (* Replica-side read-class admission: a weaker tier carrying update
     statements is a contract violation, rejected before any execution
     (a permanent abort — the client will not retry it). *)
  (match Transaction.tier_violation f.req with
  | Some msg -> abort_with (Transaction.Statement_error msg)
  | None -> ());
  (* Stage: version — the synchronization start delay. It gives up at
     the earlier of the bounded-wait timeout and the transaction's own
     deadline. *)
  Metrics.stage_enter f.mtxn Metrics.Version;
  let deadline =
    let start_wait =
      if t.cfg.Config.start_wait_timeout_ms > 0.0 then
        now t +. t.cfg.Config.start_wait_timeout_ms
      else infinity
    in
    let d = Float.min start_wait f.deadline in
    if d = infinity then None else Some d
  in
  (match Replica.await_version ?deadline replica v_start with
  | Ok () -> ()
  | Error reason ->
    if now t >= f.deadline then t.deadline_expired <- t.deadline_expired + 1;
    abort_with reason);
  Metrics.stage_exit f.mtxn Metrics.Version;
  let txn = Replica.begin_txn replica ~tid:f.tid in
  Metrics.stage_enter f.mtxn Metrics.Queries;
  run_statements replica ~tid:f.tid txn f.req.Transaction.statements;
  Metrics.stage_exit f.mtxn Metrics.Queries;
  txn

(* Stage: certify — round trip to whichever group member holds the
   primary role when the request leaves. Returns the decision. *)
let certify t f ~snapshot ~ws =
  if now t > f.deadline then begin
    (* The deadline passed while statements ran: drop the update before
       it ever reaches the certifier. *)
    t.deadline_expired <- t.deadline_expired + 1;
    abort_with Transaction.Timeout
  end;
  Metrics.stage_enter f.mtxn Metrics.Certify;
  leg t ~src:f.replica ~dst:(Certifier.primary_net t.certifier)
    ~size_bytes:(Storage.Codec.writeset_bytes ws + 64);
  let trace =
    Option.map (fun id -> (id, Metrics.txn_root_span f.mtxn)) (Metrics.txn_trace_id f.mtxn)
  in
  let decision =
    Certifier.certify ?trace
      ~applied:(Replica.v_local t.replicas.(f.replica))
      ~deadline:f.deadline t.certifier ~origin:f.replica ~snapshot ~ws
  in
  (* The decision leg is persistent: once certified, the outcome is
     durable at the certifier group and must reach the replica. It
     originates at the member that currently holds the role — after a
     failover the new primary answers for surviving decisions of older
     epochs. *)
  Sim.Network.transfer t.network ~src:(Certifier.primary_net t.certifier) ~dst:f.replica
    ~size_bytes:32;
  Metrics.stage_exit f.mtxn Metrics.Certify;
  decision

(* Defensive replica-side fence: a commit stamped by a deposed primary
   for a version past the promotion point is not part of the surviving
   history. The certifier normally converts these to aborts itself. *)
let survives t ~version ~epoch =
  epoch >= Certifier.current_epoch t.certifier || version <= Certifier.epoch_base t.certifier

(* Every decision other than a surviving commit. *)
let refuse t f = function
  | Certifier.Abort | Certifier.Commit _ -> abort_with Transaction.Certification_conflict
  | Certifier.Overloaded ->
    (* Refused by the bounded certifier backlog: surfaced to the client
       exactly like an LB shed. *)
    shed t f
  | Certifier.Expired ->
    (* Its deadline passed while it queued at the certifier. *)
    t.deadline_expired <- t.deadline_expired + 1;
    abort_with Transaction.Timeout

(* Stages: sync (wait for predecessors) then commit at the replica; the
   sequencer reports when the commit work began, splitting the wait
   retroactively. Eager mode then waits for the global commit. *)
let apply_commit t f ~version ~ws ~global_commit =
  let replica = t.replicas.(f.replica) in
  Metrics.stage_enter f.mtxn Metrics.Sync;
  (match Sim.Ivar.read (Replica.commit_local replica ~version ~ws) with
  | Error reason -> abort_with reason
  | Ok commit_work_start ->
    Metrics.stage_exit ~at:commit_work_start f.mtxn Metrics.Sync;
    Metrics.stage_enter ~at:commit_work_start f.mtxn Metrics.Commit;
    Metrics.stage_exit f.mtxn Metrics.Commit);
  Replica.finish_txn replica ~tid:f.tid;
  match global_commit with
  | None -> ()
  | Some ivar ->
    Metrics.stage_enter f.mtxn Metrics.Global;
    Sim.Ivar.read ivar;
    Metrics.stage_exit f.mtxn Metrics.Global

(* Stage: commit, read-only — locally, with no certification. *)
let commit_read_only t f txn =
  let replica = t.replicas.(f.replica) in
  Metrics.stage_enter f.mtxn Metrics.Commit;
  Replica.commit_read_only replica txn;
  Metrics.stage_exit f.mtxn Metrics.Commit;
  Replica.finish_txn replica ~tid:f.tid

(* The one commit tail, for read-only ([version] absent) and update
   commits alike: ack through the LB, account, record. A read-only
   commit never met the certifier, so its record carries the epoch
   current at its ack; an update always ran at [Strong], because
   [tier_violation] refuses a weaker tier that may write. *)
let commit ?version ?epoch t f ~snapshot ~ws =
  let lb = relay t f ~ack_bytes:64 in
  (match version with
  | None -> Load_balancer.note_snapshot_ack lb ~sid:f.sid ~snapshot
  | Some version ->
    Load_balancer.note_commit_ack ?epoch ~now:(now t) lb ~sid:f.sid ~version
      ~tables_written:(Storage.Writeset.tables ws));
  reply t ~src:t.lb_active ~ack_bytes:64;
  let response_ms = now t -. f.begin_time in
  let stages = Metrics.txn_stages f.mtxn in
  (match version with
  | None ->
    (* Served staleness: versions the snapshot trails V_system at
       response time — the read tiers' quality-of-service number. *)
    let staleness = Stdlib.max 0 (Load_balancer.v_system (active_lb t) - snapshot) in
    Metrics.txn_commit f.mtxn ~read_only:true
      ~tier:(Consistency.tier_slug f.req.Transaction.tier)
      ~staleness
  | Some version ->
    Metrics.txn_commit f.mtxn ~read_only:false ~args:[ ("version", string_of_int version) ];
    Log.debug (fun m ->
        m "[%.3f] T%d committed at v%d (snapshot v%d, %.2fms)" (now t) f.tid version snapshot
          response_ms));
  record_commit t ~tid:f.tid ~sid:f.sid ~begin_time:f.begin_time ~snapshot
    ~commit_version:version
    ~epoch:(match epoch with Some e -> e | None -> Certifier.current_epoch t.certifier)
    ~lb_epoch:f.lb_epoch ~tier:f.req.Transaction.tier
    ~table_set:f.req.Transaction.table_set ~ws ~trace:(Metrics.txn_trace_id f.mtxn);
  release t f;
  Transaction.Committed { commit_version = version; snapshot; stages; response_ms }

(* The per-attempt deadline under [Config.overload_protection]: far
   above a healthy transaction's response time, so it drops only work
   stuck in a backlog. *)
let deadline_ms = 500.0

let submit t ~sid (req : Transaction.request) =
  let begin_time = now t in
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  (* Deadline propagation (docs/PROTOCOL.md, "Overload & admission
     control"): the client's drop-dead point rides with the transaction;
     the version wait, the certify hand-off and the certifier itself all
     drop work past it — always strictly before a commit decision, so an
     expired transaction can never commit. *)
  let deadline =
    if t.cfg.Config.overload_protection then begin_time +. deadline_ms else infinity
  in
  let mtxn = Metrics.txn_begin ?obs:t.obs ~sid ~name:req.Transaction.profile t.metrics in
  let f =
    {
      tid;
      sid;
      req;
      mtxn;
      begin_time;
      deadline;
      stand = Unrouted;
      lb = t.lb_active;
      lb_epoch = t.lb_epoch;
      admitted = false;
      replica = -1;
    }
  in
  match
    let v_start = route t f in
    let txn = execute t f ~v_start in
    let snapshot = Storage.Txn.snapshot txn in
    let ws = Storage.Txn.writeset txn in
    if Storage.Writeset.is_empty ws then begin
      commit_read_only t f txn;
      commit t f ~snapshot ~ws
    end
    else
      match certify t f ~snapshot ~ws with
      | Certifier.Commit { version; epoch; global_commit } when survives t ~version ~epoch ->
        apply_commit t f ~version ~ws ~global_commit;
        commit ~version ~epoch t f ~snapshot ~ws
      | decision -> refuse t f decision
  with
  | outcome -> outcome
  | exception Abort_txn reason -> abort t f reason

let run_for t ~warmup_ms ~measure_ms =
  let start = Sim.Engine.now t.engine in
  Sim.Engine.run t.engine ~until:(start +. warmup_ms);
  Metrics.reset_window t.metrics;
  Check.Runlog.Sink.clear t.log;
  Sim.Engine.run t.engine ~until:(start +. warmup_ms +. measure_ms)

let records t = Check.Runlog.Sink.records t.log

let was_shed t ~tid = Hashtbl.mem t.shed_tids tid

let shed_count t = Hashtbl.length t.shed_tids

