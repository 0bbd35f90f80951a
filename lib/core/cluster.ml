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
  lb_crashed : bool array;
  lb_self_active : bool array;  (* each instance's own belief about its role *)
  lb_self_epoch : int array;  (* highest routing epoch each instance knows *)
  lb_heard : float array;  (* per instance: when it last received a state push *)
  mutable lb_takeovers : int;
  mutable lb_fenced : int;  (* stale-LB-epoch pushes and relays rejected *)
  replicas : Replica.t array;
  metrics : Metrics.t;
  obs : Obs.Trace.t option;
  registry : Obs.Registry.t;
  c_commit : Obs.Registry.counter;
  c_commit_ro : Obs.Registry.counter;
  c_abort : Obs.Registry.counter;
  mutable probes : (probe * Obs.Registry.gauge) array;
      (* the probe table with each entry's registry gauge; filled once
         the record exists, since the readers close over it *)
  shed_tids : (int, unit) Hashtbl.t;
      (* every tid refused with [Transaction.Overloaded] — the chaos
         zombie-commit checker asserts none of them appears in the
         commit log; empty unless an overload knob is on *)
  mutable next_tid : int;
  log : Check.Runlog.Sink.t;  (* flat append-order store of commit records *)
  (* monotonic-counter cursors for mirroring deltas into Metrics *)
  mutable seen_net_retransmits : int;
  mutable seen_cert_retransmits : int;
  mutable seen_suspects : int;
  mutable seen_failovers : int;
  mutable reprovisions : int;
}

let request_bytes (req : Transaction.request) =
  (* A rough wire estimate: statements travel as prepared-statement ids
     plus parameters. *)
  64 + (List.length req.Transaction.statements * 48)

let active_lb t = t.lbs.(t.lb_active)

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
    (* The outage outlived the certifier's pruned log: state-transfer a
       checkpoint from the freshest live peer, then replay the residual
       log suffix. *)
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
      Replica.state_transfer r ~snapshot:(Replica.checkpoint donor);
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
  if t.cfg.Config.reliable then
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
  else each_lb t (fun lb -> Load_balancer.set_live lb ~replica:i true)

let crash_certifier t = Certifier.crash t.certifier

let failover_certifier t = Certifier.failover t.certifier

let revive_certifier_node t k = Certifier.revive_node t.certifier k

let crash_lb t k =
  if Array.length t.lbs < 2 then
    invalid_arg "Cluster.crash_lb: no standby LB configured (Config.lb_standby)";
  t.lb_crashed.(k) <- true

let recover_lb t k =
  t.lb_crashed.(k) <- false;
  (* Revival grace: restart the suspicion clock so the instance judges
     its peer from fresh silence, not from the outage it slept through. *)
  t.lb_heard.(k) <- Sim.Engine.now t.engine

(* --- the probe table -------------------------------------------------

   Every cluster-level reading is declared here, once. A [Gauge] is an
   instantaneous level; a [Total] is a monotonic source. The registry
   holds one gauge per entry ({!update_gauges}); the observatory reads a
   gauge at each window close and turns a total into a per-window delta
   counter ({!start_observatory}). *)

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
      (* Overload levels: flat zero unless an overload knob is on. *)
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
      (* Overload protection (docs/PROTOCOL.md, "Overload & admission
         control"): zero unless a protection knob is on and fires. *)
      total "certifier.shed" (fun () -> Certifier.shed c);
      total "certifier.expired" (fun () -> Certifier.expired c);
      total "txn.shed" (fun () -> Metrics.shed t.metrics);
      total "txn.deadline_expired" (fun () -> Metrics.deadline_expired t.metrics);
      total "txn.retry_budget_exhausted" (fun () ->
          Metrics.retry_budget_exhausted t.metrics);
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
    Sim.Network.create engine ~rto_ms:config.Config.rto_ms ~rng:(Util.Rng.split rng)
      ~base_ms:config.Config.net_base_ms ~jitter_ms:config.Config.net_jitter_ms
      ~bandwidth_mbps:config.Config.net_bandwidth_mbps
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
    if config.Config.lb_standby then
      [| lb0; Load_balancer.create ~rng:(Util.Rng.split rng) config ~mode |]
    else [| lb0 |]
  in
  let replicas =
    Array.init config.Config.replicas (fun id ->
        let db = Storage.Database.create ~intern () in
        List.iter (fun schema -> ignore (Storage.Database.create_table db schema)) schemas;
        load db;
        Replica.create ?obs ~metrics engine config ~rng:(Util.Rng.split rng) ~id db)
  in
  let registry = Obs.Registry.create () in
  (match faults with
  | None -> ()
  | Some f ->
    Certifier.set_faults certifier f;
    Array.iter (fun r -> Replica.set_faults r f) replicas;
    (* Every injected fault becomes a window-scoped metric. *)
    Sim.Faults.on_event f (fun ev ->
        Metrics.note_fault metrics
          (match ev with
          | Sim.Faults.Dropped _ -> `Drop
          | Sim.Faults.Duplicated _ -> `Duplicate
          | Sim.Faults.Delayed _ -> `Delay)));
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
      lb_crashed = Array.make (Array.length lbs) false;
      lb_self_active = Array.init (Array.length lbs) (fun k -> k = 0);
      lb_self_epoch = Array.make (Array.length lbs) 0;
      lb_heard = Array.make (Array.length lbs) 0.0;
      lb_takeovers = 0;
      lb_fenced = 0;
      replicas;
      metrics;
      obs;
      registry;
      c_commit = Obs.Registry.counter registry "txn.commit";
      c_commit_ro = Obs.Registry.counter registry "txn.commit_ro";
      c_abort = Obs.Registry.counter registry "txn.abort";
      probes = [||];
      shed_tids = Hashtbl.create 64;
      next_tid = 0;
      log = Check.Runlog.Sink.create ();
      seen_net_retransmits = 0;
      seen_cert_retransmits = 0;
      seen_suspects = 0;
      seen_failovers = 0;
      reprovisions = 0;
    }
  in
  Array.iter
    (fun replica ->
      let id = Replica.id replica in
      Certifier.subscribe certifier ~replica:id (fun ~epoch batch ->
          Replica.receive_refresh_batch ~epoch replica batch);
      Replica.set_on_commit replica (fun ~version ->
          if config.Config.reliable then
            (* The commit ack rides the (lossy) network to whichever
               group member currently holds the primary role; a lost ack
               is eventually covered by a heartbeat's cumulative
               watermark. *)
            Sim.Network.send network ~src:id ~dst:(Certifier.primary_net certifier)
              ~size_bytes:24 (fun () -> Certifier.ack certifier ~replica:id ~version)
          else Certifier.ack certifier ~replica:id ~version);
      Replica.start replica)
    replicas;
  if config.Config.gc_interval_ms > 0.0 then
    Sim.Process.spawn engine (fun () ->
        let rec loop () =
          Sim.Process.sleep engine config.Config.gc_interval_ms;
          (* Vacuum each replica behind its own applied version: any live
             snapshot there is at most gc_window versions old. *)
          Array.iter
            (fun r ->
              let keep_after = max 0 (Replica.v_local r - config.Config.gc_window) in
              ignore (Storage.Database.gc (Replica.database r) ~keep_after))
            replicas;
          (* Truncate certifier log + index behind the slowest live
             replica's applied watermark (piggybacked on cert/ack
             traffic — no omniscient peek at replica state); a replica
             that stays down longer than the slack recovers by state
             transfer instead of log replay. *)
          Certifier.gc certifier;
          (* The all-replica minimum watermark (crashed included) is a
             permanent floor on applied versions: session-version
             entries at or below it impose no wait and can go — on the
             standby too, which mirrors them via state pushes. *)
          Array.iter
            (fun lb ->
              Load_balancer.prune_sessions lb
                ~applied_min:(Certifier.min_watermark certifier))
            lbs;
          loop ()
        in
        loop ());
  if config.Config.reliable then begin
    (* Replica heartbeats: liveness + cumulative applied watermark, to
       both the failure detector (LB) and the certifier, over the lossy
       network — a lost heartbeat is just silence until the next one. *)
    if config.Config.heartbeat_ms > 0.0 then
      Array.iter
        (fun r ->
          let id = Replica.id r in
          Sim.Process.spawn engine (fun () ->
              let rec loop () =
                Sim.Process.sleep engine config.Config.heartbeat_ms;
                if not (Replica.is_crashed r) then begin
                  let v = Replica.v_local r in
                  (* Addressed to whichever instance holds the routing
                     role when the heartbeat leaves; applied to whichever
                     holds it when it lands (both truthful piggybacks). *)
                  Sim.Network.send network ~src:id ~dst:(lb_node t.lb_active)
                    ~size_bytes:16
                    (fun () ->
                      let lb = active_lb t in
                      Load_balancer.note_contact lb ~replica:id
                        ~now:(Sim.Engine.now engine);
                      (* The heartbeat carries the applied watermark as of
                         send time — same payload the certifier gets, so
                         the 16-byte message covers both piggybacks. *)
                      Load_balancer.note_applied lb ~replica:id ~version:v);
                  Sim.Network.send network ~src:id
                    ~dst:(Certifier.primary_net certifier) ~size_bytes:16 (fun () ->
                      Certifier.heartbeat certifier ~replica:id ~applied:v)
                end;
                loop ()
              in
              loop ()))
        replicas;
    (* Failure-detector sweep + certifier live-set reconciliation. *)
    Sim.Process.spawn engine (fun () ->
        let interval = Float.max 1.0 (config.Config.suspect_after_ms /. 4.0) in
        let rec loop () =
          Sim.Process.sleep engine interval;
          let now = Sim.Engine.now engine in
          let lb = active_lb t in
          Load_balancer.sweep lb ~now;
          (* Mirror detector transitions into metrics. Summed over
             instances so the cursors stay monotone across an LB
             takeover. *)
          let suspects = lb_sum t Load_balancer.suspect_events in
          for _ = t.seen_suspects + 1 to suspects do
            Metrics.note_suspect metrics
          done;
          t.seen_suspects <- suspects;
          let failovers = lb_sum t Load_balancer.failover_events in
          for _ = t.seen_failovers + 1 to failovers do
            Metrics.note_failover metrics
          done;
          t.seen_failovers <- failovers;
          (* Mirror retransmission work (stop-and-wait re-sends plus the
             certifier's refresh repair) as deltas. *)
          let net_retx = Sim.Network.retransmits network in
          Metrics.note_retransmits metrics (net_retx - t.seen_net_retransmits);
          t.seen_net_retransmits <- net_retx;
          let cert_retx = Certifier.retransmits certifier in
          Metrics.note_retransmits metrics (cert_retx - t.seen_cert_retransmits);
          t.seen_cert_retransmits <- cert_retx;
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
                    (* Back in contact but beyond log repair (evicted, or
                       the log was truncated past its position):
                       reprovision via checkpoint state transfer. *)
                    t.reprovisions <- t.reprovisions + 1;
                    Metrics.note_failover metrics;
                    crash_replica t id;
                    recover_replica t id
                  end
                  else
                    (* Plain rejoin: repair resends the missing suffix. *)
                    Certifier.mark_up ~applied:(Replica.v_local r) certifier
                      ~replica:id)
            replicas;
          loop ()
        in
        loop ());
    (* Certifier refresh repair: re-send un-acked suffixes to stalled
       replicas (delivery is idempotent at the receiver). *)
    if config.Config.retransmit_ms > 0.0 then
      Sim.Process.spawn engine (fun () ->
          let rec loop () =
            Sim.Process.sleep engine config.Config.retransmit_ms;
            Certifier.repair_tick certifier;
            loop ()
          in
          loop ())
  end;
  if Array.length lbs > 1 then begin
    (* --- LB state replication and takeover (docs/PROTOCOL.md, "Control
       plane"). The instance that believes itself active pushes a
       snapshot of its routing state every [lb_repl_ms] over the lossy
       network; the push doubles as the liveness heartbeat. A standby
       that hears nothing for [lb_suspect_after_ms] promotes itself: it
       bumps the routing epoch, reconstructs a conservative version
       floor by probing live replicas and the certifier, and only then
       starts taking client traffic. A deposed instance that keeps
       pushing is fenced by the epoch at every receiver, and learns of
       its own deposition from the successor's higher-epoch pushes. *)
    let reconstruct_floor k =
      (* The replicated [V_system] covers everything the deposed LB
         acked at least one push period ago; probing live replicas
         (applied versions) and the certifier (released head) covers
         the final window, because every client-acked commit was
         applied at its origin replica before the ack left. An
         unreachable node forfeits its probe after the bounded
         retransmission budget — takeover must not block on the very
         failure it is healing. *)
      let floor = ref (Load_balancer.v_system lbs.(k)) in
      let tries = Stdlib.max 1 config.Config.max_retransmits in
      let probe ~dst read =
        match
          Sim.Network.transfer_bounded network ~src:(lb_node k) ~dst ~size_bytes:16
            ~max_tries:tries
        with
        | Error `Timeout -> ()
        | Ok () -> (
          let v = read () in
          match
            Sim.Network.transfer_bounded network ~src:dst ~dst:(lb_node k)
              ~size_bytes:16 ~max_tries:tries
          with
          | Ok () -> if v > !floor then floor := v
          | Error `Timeout -> ())
      in
      Array.iter
        (fun r ->
          if not (Replica.is_crashed r) then
            probe ~dst:(Replica.id r) (fun () -> Replica.v_local r))
        replicas;
      if not (Certifier.is_crashed certifier) then
        probe
          ~dst:(Certifier.primary_net certifier)
          (fun () -> Certifier.version certifier);
      !floor
    in
    Array.iteri
      (fun k _ ->
        let other = 1 - k in
        (* State push (runs in the active role only). *)
        Sim.Process.spawn engine (fun () ->
            let rec loop () =
              Sim.Process.sleep engine config.Config.lb_repl_ms;
              if t.lb_self_active.(k) && not t.lb_crashed.(k) then begin
                let st = Load_balancer.capture lbs.(k) in
                let push_epoch = t.lb_self_epoch.(k) in
                Sim.Network.send network ~src:(lb_node k) ~dst:(lb_node other)
                  ~size_bytes:(Load_balancer.state_bytes st + 16)
                  (fun () ->
                    if not t.lb_crashed.(other) then
                      if push_epoch < t.lb_self_epoch.(other) then
                        (* A deposed active that has not yet learned of
                           the takeover: fence the push. *)
                        t.lb_fenced <- t.lb_fenced + 1
                      else begin
                        (* The sender claims the active role at our
                           epoch or later: we are the standby. *)
                        t.lb_self_active.(other) <- false;
                        t.lb_self_epoch.(other) <- push_epoch;
                        Load_balancer.absorb lbs.(other) st;
                        t.lb_heard.(other) <- Sim.Engine.now engine
                      end)
              end;
              loop ()
            in
            loop ());
        (* Takeover monitor (runs in the standby role only). *)
        Sim.Process.spawn engine (fun () ->
            let rec loop () =
              Sim.Process.sleep engine config.Config.lb_repl_ms;
              let now = Sim.Engine.now engine in
              if
                (not t.lb_self_active.(k))
                && (not t.lb_crashed.(k))
                && now -. t.lb_heard.(k) > config.Config.lb_suspect_after_ms
              then begin
                let epoch =
                  1
                  + Stdlib.max t.lb_epoch
                      (Stdlib.max t.lb_self_epoch.(0) t.lb_self_epoch.(1))
                in
                t.lb_self_epoch.(k) <- epoch;
                t.lb_self_active.(k) <- true;
                (* Detector grace: the standby never received contacts
                   directly, so seed last-contact now or its first sweep
                   would declare every replica dead at once. *)
                Array.iter
                  (fun r ->
                    Load_balancer.note_contact lbs.(k) ~replica:(Replica.id r) ~now)
                  replicas;
                let floor = reconstruct_floor k in
                Load_balancer.note_takeover lbs.(k) ~floor;
                (* Routing flips last: clients only reach the successor
                   once its floors are installed. *)
                t.lb_epoch <- epoch;
                t.lb_active <- k;
                t.lb_takeovers <- t.lb_takeovers + 1;
                Metrics.note_lb_takeover metrics;
                Log.info (fun m ->
                    m "[%.3f] LB instance %d took over routing (epoch %d, floor v%d)"
                      (Sim.Engine.now engine) k epoch floor);
                t.lb_heard.(k) <- Sim.Engine.now engine
              end;
              loop ()
            in
            loop ()))
      lbs
  end;
  t.probes <-
    Array.of_list
      (List.map (fun p -> (p, Obs.Registry.gauge registry p.name)) (probe_table t));
  t

let engine t = t.engine
let config t = t.cfg
let mode t = Load_balancer.mode (active_lb t)
let metrics t = t.metrics
let certifier t = t.certifier
let load_balancer t = active_lb t
let lb_instance t k = t.lbs.(k)
let lb_count t = Array.length t.lbs
let lb_active_index t = t.lb_active
let lb_epoch t = t.lb_epoch
let lb_is_crashed t k = t.lb_crashed.(k)
let lb_takeovers t = t.lb_takeovers
let lb_fenced t = t.lb_fenced
let lb_cert_fenced t = lb_sum t Load_balancer.cert_fenced
let replica t i = t.replicas.(i)
let rng t = Util.Rng.split t.rng
let trace t = t.obs
let registry t = t.registry
let network t = t.network
let faults t = t.faults
let reprovisions t = t.reprovisions

(* --- telemetry ----------------------------------------------------- *)

let probes t = Array.to_list (Array.map fst t.probes)

let update_gauges t =
  Array.iter (fun (p, g) -> Obs.Registry.set g (p.read ())) t.probes;
  Metrics.set_health t.metrics
    ~lag_max:(float_of_int (max_lag t))
    ~cert_log:(Certifier.log_size t.certifier)
    ~watermark_horizon:(Certifier.log_base t.certifier)
    ~epoch:(Certifier.current_epoch t.certifier)

(* --- the run-health observatory ------------------------------------

   Windowed time series over the whole cluster: transaction outcomes
   stream in through the Metrics outcome observer; the probe table's
   totals are mirrored as per-window deltas and its gauges are read at
   each window close, right after the registry gauges are refreshed.
   Everything here only reads simulation state — no RNG draw, no
   protocol event — so an observed run is bit-identical to a blind
   one. *)

let start_observatory t =
  let ts =
    Obs.Timeseries.create ~window_ms:t.cfg.Config.obs_window_ms
      ~buckets_per_decade:t.cfg.Config.obs_hist_buckets_per_decade t.engine
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
  (* Probe table -> gauges read at window close, totals mirrored as
     per-window deltas. The registry refresh rides the same close. *)
  let delta name read =
    let c = Obs.Timeseries.counter ts name in
    let read () = int_of_float (read ()) in
    let seen = ref (read ()) in
    fun () ->
      let v = read () in
      Obs.Timeseries.bump c ~by:(v - !seen);
      seen := v
  in
  let mirrors =
    List.filter_map
      (fun p ->
        match p.kind with
        | Gauge ->
          Obs.Timeseries.add_probe ts ~name:p.name p.read;
          None
        | Total -> Some (delta p.name p.read))
      (probes t)
  in
  Obs.Timeseries.add_pre_close ts (fun () -> List.iter (fun m -> m ()) mirrors);
  Obs.Timeseries.add_pre_close ts (fun () -> update_gauges t);
  Obs.Timeseries.start ts;
  ts

let stop_observatory t ts =
  Obs.Timeseries.stop ts;
  Obs.Timeseries.flush ts;
  Metrics.set_observer t.metrics None

let render_key key =
  String.concat "," (List.map Storage.Value.to_string (Array.to_list key))

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
            (fun e -> (e.Storage.Writeset.ws_table, render_key e.Storage.Writeset.ws_key))
            entries;
        trace;
      }
    in
    Check.Runlog.Sink.add t.log record
  end

(* An LB outage stalls response relays until the standby takes over or
   the instance revives — response legs are persistent, so they wait
   rather than time out. Never entered without [Config.lb_standby]
   (nothing ever crashes the only LB). *)
let await_routable t =
  let rec wait () =
    if t.lb_crashed.(t.lb_active) then begin
      Sim.Process.sleep t.engine (Float.max 1.0 t.cfg.Config.lb_repl_ms);
      wait ()
    end
  in
  wait ()

(* Response path shared by every outcome: replica -> LB -> client, with
   the LB's bookkeeping in between. [route_lb] is the instance that
   dispatched the transaction — its active-count must be balanced even
   if routing moved on — while floors and freshness go to whichever
   instance is authoritative when the response relays, so guarantees
   handed out after a takeover live where the next request looks. *)
let respond t ~route_lb ~route_epoch ~replica_id ~ack_bytes ~on_lb =
  (* The response implicitly reports the replica's applied version as of
     send time — free freshness information for the staleness router. *)
  let applied = Replica.v_local t.replicas.(replica_id) in
  (* Response legs are persistent transfers: once the replica holds a
     decision the client-visible outcome must eventually arrive, or a
     committed write would be reported lost. *)
  await_routable t;
  Sim.Network.transfer t.network ~src:replica_id ~dst:(lb_node t.lb_active)
    ~size_bytes:ack_bytes;
  Sim.Process.sleep t.engine t.cfg.Config.lb_ms;
  await_routable t;
  let lb = active_lb t in
  if t.cfg.Config.reliable then
    Load_balancer.note_contact lb ~replica:replica_id
      ~now:(Sim.Engine.now t.engine);
  Load_balancer.note_applied lb ~replica:replica_id ~version:applied;
  Load_balancer.note_complete route_lb ~replica:replica_id;
  if route_epoch < t.lb_epoch then
    (* The dispatching LB was deposed while the transaction ran; the
       relay is re-stamped by the successor. *)
    t.lb_fenced <- t.lb_fenced + 1;
  on_lb lb;
  Sim.Network.transfer t.network ~src:(lb_node t.lb_active) ~dst:Config.node_client
    ~size_bytes:ack_bytes

let submit t ~sid (req : Transaction.request) =
  let begin_time = Sim.Engine.now t.engine in
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  (* Deadline propagation (docs/PROTOCOL.md, "Overload & admission
     control"): the client's drop-dead point rides with the transaction;
     the version wait, the certify hand-off and the certifier itself all
     drop work past it — always strictly before a commit decision, so an
     expired transaction can never commit. [infinity] when off. *)
  let txn_deadline =
    if t.cfg.Config.deadline_ms > 0.0 then
      begin_time +. t.cfg.Config.deadline_ms
    else infinity
  in
  (* The stage clock: feeds both the aggregate breakdown and, when the
     cluster was created with [~tracing:true], the transaction's spans. *)
  let mtxn = Metrics.txn_begin ?obs:t.obs ~sid ~name:req.Transaction.profile t.metrics in
  let now () = Sim.Engine.now t.engine in
  (* Request legs carry no server-side side effect yet, so they may give
     up after a bounded number of retransmissions and surface a Timeout
     abort (the client retries with backoff). Without [reliable] the leg
     is the classic single exactly-once transfer. *)
  let leg_req ~src ~dst ~size_bytes =
    if t.cfg.Config.reliable then
      Sim.Network.transfer_bounded t.network ~src ~dst ~size_bytes
        ~max_tries:t.cfg.Config.max_retransmits
    else begin
      Sim.Network.transfer t.network ~src ~dst ~size_bytes;
      Ok ()
    end
  in
  let abort_unrouted reason =
    Metrics.txn_abort mtxn
      ~slug:(Transaction.abort_slug reason)
      ~reason:(Format.asprintf "%a" Transaction.pp_abort_reason reason);
    Obs.Registry.incr t.c_abort;
    Log.debug (fun m ->
        m "[%.3f] T%d aborted before dispatch: %a" (now ()) tid
          Transaction.pp_abort_reason reason);
    Transaction.Aborted { reason; response_ms = now () -. begin_time }
  in
  (* A crashed active LB answers nothing: the client burns its
     retransmission budget and times out (the standby's takeover flips
     routing for later requests). Checked before and after the leg —
     the instance may die while the request is in flight. *)
  let lb_down () = Array.length t.lbs > 1 && t.lb_crashed.(t.lb_active) in
  let abort_lb_down () =
    Sim.Process.sleep t.engine
      (t.cfg.Config.rto_ms *. float_of_int (Stdlib.max 1 t.cfg.Config.max_retransmits));
    abort_unrouted Transaction.Timeout
  in
  (* Client -> load balancer. *)
  if lb_down () then abort_lb_down ()
  else
  match
    leg_req ~src:Config.node_client ~dst:(lb_node t.lb_active)
      ~size_bytes:(request_bytes req)
  with
  | Error `Timeout -> abort_unrouted Transaction.Timeout
  | Ok () ->
  if lb_down () then abort_lb_down ()
  else begin
  Sim.Process.sleep t.engine t.cfg.Config.lb_ms;
  (* The dispatching instance and routing epoch are pinned here: the
     active-count must be balanced on this instance even if a takeover
     happens mid-flight, and the commit record carries the epoch so the
     floor-preservation checker can see across takeovers. *)
  let route_li = t.lb_active in
  let route_lb = t.lbs.(route_li) in
  let route_epoch = t.lb_epoch in
  (* Admission control: the LB refuses work it cannot afford before any
     replica is engaged — the refusal is answered straight back to the
     client with a retry-after hint, and the tid is remembered so the
     zombie-commit checker can prove a shed transaction never commits.
     All gates are off by default (see Config). *)
  let shed_abort retry_after_ms =
    Metrics.record_shed t.metrics;
    Hashtbl.replace t.shed_tids tid ();
    Sim.Network.transfer t.network ~src:(lb_node route_li) ~dst:Config.node_client
      ~size_bytes:32;
    let reason = Transaction.Overloaded { retry_after_ms } in
    Metrics.txn_abort mtxn
      ~slug:(Transaction.abort_slug reason)
      ~reason:(Format.asprintf "%a" Transaction.pp_abort_reason reason);
    Transaction.Aborted { reason; response_ms = now () -. begin_time }
  in
  let strong = req.Transaction.tier = Consistency.Strong in
  let writes =
    List.exists Storage.Query.is_update req.Transaction.statements
  in
  (* Apply-lag governor: when the slowest live replica's applied
     watermark trails [V_system] by more than [apply_lag_gap] versions,
     new writes are refused — admitting them would only stretch the
     refresh backlog (and every tiered read's staleness) further. Reads
     stay admitted: they don't grow the backlog. *)
  if
    t.cfg.Config.apply_lag_gap > 0 && writes
    &&
    match Certifier.min_live_watermark t.certifier with
    | None -> false
    | Some w -> Certifier.version t.certifier - w > t.cfg.Config.apply_lag_gap
  then shed_abort t.cfg.Config.shed_retry_after_ms
  else begin
    let admission =
      if Load_balancer.admission_on t.cfg then
        match Load_balancer.admit route_lb ~now:(now ()) ~strong with
        | Ok () -> `Admitted
        | Error retry_after_ms -> `Shed retry_after_ms
      else `Off
    in
    match admission with
    | `Shed retry_after_ms -> shed_abort retry_after_ms
    | (`Admitted | `Off) as adm ->
      (if adm = `Admitted then
         Metrics.note_queue_depth t.metrics (Load_balancer.admitted route_lb));
      let release () =
        if adm = `Admitted then Load_balancer.release route_lb
      in
      Fun.protect ~finally:release @@ fun () ->
  (* Strong requests take the mode's version oracle; with read tiers
     enabled, a weaker read class is routed by staleness instead — the
     floor comes from the tier, the replica from its applied watermark.
     With tiers disabled the branch below is never entered for the
     default [Strong] tier, keeping this path byte-identical. *)
  let replica_id, v_start =
    if t.cfg.Config.read_tiers && req.Transaction.tier <> Consistency.Strong then
      Load_balancer.route_read route_lb ~sid ~tier:req.Transaction.tier ~now:(now ())
    else
      ( Load_balancer.choose_replica route_lb ~sid,
        Load_balancer.start_version route_lb ~sid
          ~table_set:req.Transaction.table_set )
  in
  let replica = t.replicas.(replica_id) in
  Load_balancer.note_dispatch route_lb ~replica:replica_id;
  (match Metrics.txn_trace_id mtxn with
  | None -> ()
  | Some trace_id ->
    Obs.Trace.instant_opt t.obs ~trace_id ~component:Obs.Span.Load_balancer ~name:"route"
      ~args:[ ("replica", string_of_int replica_id); ("v_start", string_of_int v_start) ]
      ());
  Metrics.txn_locate mtxn ~replica:replica_id;
  (* Load balancer -> replica. *)
  match
    leg_req ~src:(lb_node route_li) ~dst:replica_id ~size_bytes:(request_bytes req)
  with
  | Error `Timeout ->
    (* The replica never saw the request; undo the dispatch count and
       answer the client directly from the LB. *)
    Load_balancer.note_complete route_lb ~replica:replica_id;
    Sim.Network.transfer t.network ~src:(lb_node route_li) ~dst:Config.node_client
      ~size_bytes:32;
    abort_unrouted Transaction.Timeout
  | Ok () ->
  Log.debug (fun m ->
      m "[%.3f] T%d (session %d, %s) -> replica %d, start version %d" begin_time tid sid
        req.Transaction.profile replica_id v_start);
  let abort ?(finish = true) reason =
    if finish then Replica.finish_txn replica ~tid;
    respond t ~route_lb ~route_epoch ~replica_id ~ack_bytes:32 ~on_lb:(fun _ -> ());
    Metrics.txn_abort mtxn
      ~slug:(Transaction.abort_slug reason)
      ~reason:(Format.asprintf "%a" Transaction.pp_abort_reason reason);
    Obs.Registry.incr t.c_abort;
    Log.debug (fun m ->
        m "[%.3f] T%d aborted: %a" (now ()) tid Transaction.pp_abort_reason reason);
    Transaction.Aborted { reason; response_ms = now () -. begin_time }
  in
  (* Replica-side read-class admission: a weaker tier carrying update
     statements is a contract violation, rejected before any execution
     (a permanent abort — the client will not retry it). *)
  match Transaction.tier_violation req with
  | Some msg -> abort ~finish:false (Transaction.Statement_error msg)
  | None ->
  (* Stage: version — the synchronization start delay. *)
  Metrics.stage_enter mtxn Metrics.Version;
  let deadline =
    (* The start wait gives up at the earlier of the bounded-wait
       timeout and the transaction's own deadline. *)
    let start_wait =
      if t.cfg.Config.start_wait_timeout_ms > 0.0 then
        now () +. t.cfg.Config.start_wait_timeout_ms
      else infinity
    in
    let d = Float.min start_wait txn_deadline in
    if d = infinity then None else Some d
  in
  match Replica.await_version ?deadline replica v_start with
  | Error reason ->
    if now () >= txn_deadline then Metrics.record_deadline_expired t.metrics;
    abort ~finish:false reason
  | Ok () -> (
    Metrics.stage_exit mtxn Metrics.Version;
    let txn = Replica.begin_txn replica ~tid in
    let snapshot = Storage.Txn.snapshot txn in
    (* Stage: queries. *)
    Metrics.stage_enter mtxn Metrics.Queries;
    let rec run_statements = function
      | [] -> Ok ()
      | stmt :: rest ->
        if Replica.abort_requested replica ~tid then Error Transaction.Early_certification
        else if Replica.is_crashed replica then Error Transaction.Replica_failure
        else begin
          match Replica.exec_statement replica txn stmt with
          | Storage.Query.Error msg -> Error (Transaction.Statement_error msg)
          | Storage.Query.Rows _ | Storage.Query.Affected _ ->
            if Storage.Query.is_update stmt && not (Replica.early_certify replica txn) then
              Error Transaction.Early_certification
            else run_statements rest
        end
    in
    let statement_result = run_statements req.Transaction.statements in
    match statement_result with
    | Error reason -> abort reason
    | Ok () -> (
      Metrics.stage_exit mtxn Metrics.Queries;
      let ws = Storage.Txn.writeset txn in
      if Storage.Writeset.is_empty ws then begin
        (* Read-only: commit locally, no certification. *)
        Metrics.stage_enter mtxn Metrics.Commit;
        Replica.commit_read_only replica txn;
        Metrics.stage_exit mtxn Metrics.Commit;
        Replica.finish_txn replica ~tid;
        respond t ~route_lb ~route_epoch ~replica_id ~ack_bytes:64 ~on_lb:(fun lb ->
            Load_balancer.note_snapshot_ack lb ~sid ~snapshot);
        let response_ms = now () -. begin_time in
        let stages = Metrics.txn_stages mtxn in
        (* Served staleness: versions the snapshot trails V_system at
           response time — the read tiers' quality-of-service number. *)
        let staleness =
          Stdlib.max 0 (Load_balancer.v_system (active_lb t) - snapshot)
        in
        Metrics.txn_commit mtxn ~read_only:true
          ~tier:(Consistency.tier_slug req.Transaction.tier)
          ~staleness;
        Obs.Registry.incr t.c_commit_ro;
        record_commit t ~tid ~sid ~begin_time ~snapshot ~commit_version:None
          ~epoch:(Certifier.current_epoch t.certifier)
          ~lb_epoch:route_epoch ~tier:req.Transaction.tier
          ~table_set:req.Transaction.table_set ~ws
          ~trace:(Metrics.txn_trace_id mtxn);
        Transaction.Committed { commit_version = None; snapshot; stages; response_ms }
      end
      else if now () > txn_deadline then begin
        (* The deadline passed while statements ran: drop the update
           before it ever reaches the certifier. *)
        Metrics.record_deadline_expired t.metrics;
        abort Transaction.Timeout
      end
      else begin
        (* Stage: certify — round trip to whichever group member holds
           the primary role when the request leaves. *)
        Metrics.stage_enter mtxn Metrics.Certify;
        let ws_bytes = Storage.Codec.writeset_bytes ws + 64 in
        match
          leg_req ~src:replica_id
            ~dst:(Certifier.primary_net t.certifier)
            ~size_bytes:ws_bytes
        with
        | Error `Timeout -> abort Transaction.Timeout
        | Ok () ->
        let trace =
          Option.map
            (fun id -> (id, Metrics.txn_root_span mtxn))
            (Metrics.txn_trace_id mtxn)
        in
        let decision =
          Certifier.certify ?trace ~applied:(Replica.v_local replica)
            ~deadline:txn_deadline t.certifier ~origin:replica_id ~snapshot ~ws
        in
        (* The decision leg is persistent: once certified, the outcome
           is durable at the certifier group and must reach the replica.
           It originates at the member that currently holds the role —
           after a failover the new primary answers for surviving
           decisions of older epochs. *)
        Sim.Network.transfer t.network
          ~src:(Certifier.primary_net t.certifier)
          ~dst:replica_id ~size_bytes:32;
        Metrics.stage_exit mtxn Metrics.Certify;
        match decision with
        | Certifier.Abort -> abort Transaction.Certification_conflict
        | Certifier.Overloaded ->
          (* Refused by the bounded certifier backlog: surfaced to the
             client exactly like an LB shed, with the same hint. *)
          Metrics.record_shed t.metrics;
          Hashtbl.replace t.shed_tids tid ();
          abort
            (Transaction.Overloaded
               { retry_after_ms = t.cfg.Config.shed_retry_after_ms })
        | Certifier.Expired ->
          (* Its deadline passed while it queued at the certifier. *)
          Metrics.record_deadline_expired t.metrics;
          abort Transaction.Timeout
        | Certifier.Commit { version; epoch; global_commit = _ }
          when
            epoch < Certifier.current_epoch t.certifier
            && version > Certifier.epoch_base t.certifier ->
          (* Defensive replica-side fence: a commit stamped by a deposed
             primary for a version past the promotion point is not part
             of the surviving history. The certifier normally converts
             these to aborts itself, so this arm is belt-and-braces. *)
          Metrics.note_fenced t.metrics;
          abort Transaction.Certification_conflict
        | Certifier.Commit { version; epoch; global_commit } -> (
          (* Stages: sync (wait for predecessors) then commit; the
             sequencer reports when the commit work began, splitting the
             wait retroactively. *)
          Metrics.stage_enter mtxn Metrics.Sync;
          let done_ = Replica.commit_local replica ~version ~ws in
          match Sim.Ivar.read done_ with
          | Error reason -> abort ~finish:false reason
          | Ok commit_work_start ->
            Metrics.stage_exit ~at:commit_work_start mtxn Metrics.Sync;
            Metrics.stage_enter ~at:commit_work_start mtxn Metrics.Commit;
            Metrics.stage_exit mtxn Metrics.Commit;
            Replica.finish_txn replica ~tid;
            (* Stage: global — eager only. *)
            (match global_commit with
            | None -> ()
            | Some ivar ->
              Metrics.stage_enter mtxn Metrics.Global;
              Sim.Ivar.read ivar;
              Metrics.stage_exit mtxn Metrics.Global);
            respond t ~route_lb ~route_epoch ~replica_id ~ack_bytes:64
              ~on_lb:(fun lb ->
                Load_balancer.note_commit_ack ~epoch ~now:(now ()) lb ~sid ~version
                  ~tables_written:(Storage.Writeset.tables ws));
            let response_ms = now () -. begin_time in
            let stages = Metrics.txn_stages mtxn in
            Metrics.txn_commit mtxn ~read_only:false
              ~args:[ ("version", string_of_int version) ];
            Obs.Registry.incr t.c_commit;
            record_commit t ~tid ~sid ~begin_time ~snapshot ~commit_version:(Some version)
              ~epoch ~lb_epoch:route_epoch ~tier:Consistency.Strong
              ~table_set:req.Transaction.table_set ~ws
              ~trace:(Metrics.txn_trace_id mtxn);
            Log.debug (fun m ->
                m "[%.3f] T%d committed at v%d (snapshot v%d, %.2fms)" (now ()) tid
                  version snapshot response_ms);
            Transaction.Committed
              { commit_version = Some version; snapshot; stages; response_ms })
      end))
  end
  end

let run_for t ~warmup_ms ~measure_ms =
  let start = Sim.Engine.now t.engine in
  Sim.Engine.run t.engine ~until:(start +. warmup_ms);
  Metrics.reset_window t.metrics;
  Obs.Registry.reset t.registry;
  Check.Runlog.Sink.clear t.log;
  Sim.Engine.run t.engine ~until:(start +. warmup_ms +. measure_ms)

let records t = Check.Runlog.Sink.records t.log

let was_shed t ~tid = Hashtbl.mem t.shed_tids tid

let shed_count t = Hashtbl.length t.shed_tids

