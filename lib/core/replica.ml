(* All replica-side maps are keyed by ints (commit versions, txn ids,
   interned conflict ids) — use the monomorphic table. *)
module Itbl = Util.Tables.Itbl

type local_commit = (float, Transaction.abort_reason) result

type slot =
  | Refresh of { ws : Storage.Writeset.t; trace : int option }
  | Local of { ws : Storage.Writeset.t; done_ : local_commit Sim.Ivar.t }

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  rng : Util.Rng.t;
  obs : Obs.Trace.t option;
  metrics : Metrics.t option;
  id : int;
  mutable db : Storage.Database.t;
  cpu : Sim.Resource.t;
  version_changed : Sim.Condition.t;  (* broadcast when V_local advances or on crash *)
  slot_arrived : Sim.Condition.t;
  slots : slot Itbl.t;  (* version -> pending ordered-commit work *)
  mutable taken : int;  (* last version dequeued; 0 once a crash cancels its run *)
  active : (Storage.Txn.t * bool ref) Itbl.t;  (* tid -> txn, abort flag *)
  mutable crashed : bool;
  mutable epoch : int;  (* bumped on crash: cancels in-flight apply lanes *)
  mutable cert_epoch : int;  (* highest certifier epoch seen on a refresh *)
  mutable fenced_refreshes : int;  (* stale-epoch refresh batches dropped *)
  pending_keys : int Util.Tables.Itbl.t;
      (* conflict-key refcounts over the pending refresh writesets
         ([slots]' Refresh entries) — the certifier's index shape reused
         so early certification probes its statement keys instead of
         scanning every pending writeset. Keyed by the group's interned
         conflict ids (the database's intern table). *)
  mutable slow_until : float;  (* hiccup window end; service times inflate until then *)
  mutable faults : Sim.Faults.t option;  (* gray-failure slowdown windows *)
  mutable on_commit : (version:int -> unit) option;
  mutable applied_refresh : int;
}

let create ?obs ?metrics engine cfg ~rng ~id db =
  {
    engine;
    cfg;
    rng;
    obs;
    metrics;
    id;
    db;
    cpu = Sim.Resource.create engine ~servers:Config.cpus_per_replica;
    version_changed = Sim.Condition.create engine;
    slot_arrived = Sim.Condition.create engine;
    slots = Itbl.create 64;
    taken = 0;
    active = Itbl.create 64;
    crashed = false;
    epoch = 0;
    cert_epoch = 0;
    fenced_refreshes = 0;
    pending_keys = Util.Tables.Itbl.create 256;
    slow_until = neg_infinity;
    faults = None;
    on_commit = None;
    applied_refresh = 0;
  }

let id t = t.id

let database t = t.db

let cpu t = t.cpu

let v_local t = Storage.Database.version t.db

let held t =
  let rec upto v = if Itbl.mem t.slots (v + 1) then upto (v + 1) else v in
  upto (Stdlib.max (v_local t) t.taken)

let is_crashed t = t.crashed

let set_faults t faults = t.faults <- Some faults

let service_time t base =
  let base =
    if t.cfg.Config.service_jitter then base *. Util.Rng.exponential t.rng ~mean:1.0
    else base
  in
  let base =
    if Sim.Engine.now t.engine < t.slow_until then base *. t.cfg.Config.hiccup_factor
    else base
  in
  match t.faults with
  | None -> base
  | Some f -> base *. Sim.Faults.slowdown f ~node:t.id

(* Transient slowdown injector: independent per replica. *)
let hiccups t () =
  let rec loop () =
    Sim.Process.sleep t.engine
      (Util.Rng.exponential t.rng ~mean:t.cfg.Config.hiccup_interval_ms);
    let duration = Util.Rng.exponential t.rng ~mean:t.cfg.Config.hiccup_duration_ms in
    t.slow_until <- Sim.Engine.now t.engine +. duration;
    loop ()
  in
  loop ()

let notify_commit t ~version =
  match t.on_commit with None -> () | Some f -> f ~version

(* Pending-key refcounts. Invariant: [pending_keys] is the multiset of
   conflict keys over the Refresh slots in [slots] — added when a
   refresh writeset is queued, removed when it leaves the queue
   (dequeued by the sequencer, reclaimed by a local commit, or dropped
   as a stale re-queue), and reset wholesale by a crash. A writeset the
   sequencer has dequeued no longer blocks local updates, even before
   its version is published. *)
let cids t ws = Storage.Writeset.cids ws ~intern:(Storage.Database.intern t.db)

let add_pending_keys t kids =
  Array.iter
    (fun kid ->
      Util.Tables.Itbl.replace t.pending_keys kid
        (1 + Option.value (Util.Tables.Itbl.find_opt t.pending_keys kid) ~default:0))
    kids

let remove_pending_keys t ws =
  Array.iter
    (fun kid ->
      match Util.Tables.Itbl.find_opt t.pending_keys kid with
      | Some 1 -> Util.Tables.Itbl.remove t.pending_keys kid
      | Some n when n > 1 -> Util.Tables.Itbl.replace t.pending_keys kid (n - 1)
      | Some _ | None -> assert false (* refcount out of sync with the pending set *))
    (cids t ws)

let dequeue t v ws =
  Itbl.remove t.slots v;
  t.taken <- v;
  remove_pending_keys t ws

(* --- Refresh application ---------------------------------------------

   The sequencer dequeues a run of consecutive refresh writesets and
   applies it as one group. A run of more than one writeset is
   partitioned into {e lanes} — connected components of the graph whose
   edges join writesets sharing a conflict key
   ({!Storage.Writeset.keys}). Lanes are disjoint by construction, so
   they install concurrently on the replica CPUs; within a lane, version
   order is preserved (the per-key MVCC chains require ascending
   installs). [V_local] is published only when the whole run is
   installed, so no snapshot can observe a gap. *)

(* [partition_lanes ~intern items] groups [(version, trace, ws)] items
   (ascending versions) into conflict lanes, each ascending, in
   first-appearance order. Union-find over item indices, keyed by the
   interned conflict id. *)
let partition_lanes ~intern items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(max ri rj) <- min ri rj
  in
  let key_owner = Util.Tables.Itbl.create 64 in
  Array.iteri
    (fun i (_, _, ws) ->
      Array.iter
        (fun kid ->
          match Util.Tables.Itbl.find_opt key_owner kid with
          | Some j -> union i j
          | None -> Util.Tables.Itbl.add key_owner kid i)
        (Storage.Writeset.cids ws ~intern))
    arr;
  let lanes = Itbl.create 8 in
  let roots = ref [] in
  Array.iteri
    (fun i item ->
      let r = find i in
      match Itbl.find_opt lanes r with
      | Some acc -> acc := item :: !acc
      | None ->
        Itbl.add lanes r (ref [ item ]);
        roots := r :: !roots)
    arr;
  List.rev_map (fun r -> List.rev !(Itbl.find lanes r)) !roots

(* Cap the lane count at [p] by folding surplus lanes together
   round-robin. Folded lanes have disjoint conflict keys, so only the
   per-key (within-lane) order matters; re-sorting the merged lane by
   version keeps it and is deterministic. *)
let bucketize p lanes =
  if List.length lanes <= p then lanes
  else begin
    let buckets = Array.make p [] in
    List.iteri (fun i lane -> buckets.(i mod p) <- lane :: buckets.(i mod p)) lanes;
    Array.to_list buckets
    |> List.map (fun reversed ->
           List.concat (List.rev reversed)
           |> List.sort (fun (v1, _, _) (v2, _, _) -> compare v1 v2))
  end

(* Install one writeset of a run unpublished, on [lane]. The run's
   captured [epoch] cancels the install if the replica crashes before
   or during it — recovery replays the run from the certifier log
   (installs are redo-idempotent, so partially installed runs are
   safe). *)
let install t ~epoch ~lane v trace ws =
  if t.epoch = epoch && not t.crashed then begin
    let rows = Storage.Writeset.cardinal ws in
    (* The refresh-apply span joins the committing transaction's trace
       when the certifier forwarded its id; recovery replays (which have
       no originating trace) fall back to the commit version. The args
       are built only when tracing is live: this runs per applied
       writeset, and the formatting is pure overhead on untraced runs. *)
    let span =
      match t.obs with
      | None -> None
      | Some _ ->
        Obs.Trace.start_opt t.obs
          ~trace_id:(Option.value trace ~default:v)
          ~component:(Obs.Span.Replica t.id) ~name:"refresh.apply"
          ~args:
            [
              ("version", string_of_int v);
              ("rows", string_of_int rows);
              ("lane", string_of_int lane);
              ("backlog", string_of_int (Itbl.length t.slots));
            ]
          ()
    in
    let cost =
      t.cfg.Config.ws_apply_base_ms +. (float_of_int rows *. t.cfg.Config.ws_apply_row_ms)
    in
    Sim.Resource.use t.cpu ~duration:(service_time t cost);
    if t.epoch = epoch then begin
      Storage.Database.apply_unpublished t.db ws ~version:v;
      t.applied_refresh <- t.applied_refresh + 1
    end;
    Obs.Trace.finish_opt t.obs span
  end

(* Publish an installed run [first..last], unless a crash cancelled it. *)
let publish_run t ~epoch ~first ~last =
  if t.epoch = epoch && not t.crashed then begin
    Storage.Database.publish t.db ~version:last;
    (* Settle slots re-queued at published versions while the run was
       in flight: recovery or a duplicated delivery leaves a stale
       Refresh (drop it and its pending keys), and a repair resend racing
       commit_local leaves a Local slot — its version just published, so
       the commit succeeded; fill its ivar or the submitter wedges (the
       sequencer never revisits a published version). *)
    for v = first to last do
      (match Itbl.find_opt t.slots v with
      | Some (Refresh { ws; _ }) -> remove_pending_keys t ws
      | Some (Local { done_; _ }) -> Sim.Ivar.fill done_ (Ok (Sim.Engine.now t.engine))
      | None -> ());
      Itbl.remove t.slots v
    done;
    Sim.Condition.broadcast t.version_changed;
    for v = first to last do
      notify_commit t ~version:v
    done
  end

(* A run of two or more writesets: fork the conflict lanes, join,
   publish once. *)
let apply_refresh_group t ~epoch ~first run =
  let last = first + List.length run - 1 in
  let lanes =
    bucketize t.cfg.Config.apply_parallelism
      (partition_lanes ~intern:(Storage.Database.intern t.db) run)
  in
  let group_span =
    match t.obs with
    | None -> None
    | Some _ ->
      Obs.Trace.start_opt t.obs
        ~trace_id:(match run with (_, Some trace, _) :: _ -> trace | _ -> first)
        ~component:(Obs.Span.Replica t.id) ~name:"refresh.apply_batch"
        ~args:
          [
            ("versions", Printf.sprintf "%d..%d" first last);
            ("count", string_of_int (List.length run));
            ("lanes", string_of_int (List.length lanes));
            ("backlog", string_of_int (Itbl.length t.slots));
          ]
        ()
  in
  Sim.Fork.join t.engine
    (List.mapi
       (fun lane items () ->
         List.iter (fun (v, trace, ws) -> install t ~epoch ~lane v trace ws) items)
       lanes);
  Obs.Trace.finish_opt t.obs group_span;
  publish_run t ~epoch ~first ~last

(* The commit sequencer: one process per replica that consumes slots in
   strict version order, interleaving refresh transactions with local
   commits exactly as the certifier ordered them. Consecutive refresh
   slots are dequeued as one run, up to [max_run]. With one lane
   ([apply_parallelism = 1]) grouping gains nothing and only delays
   publication, so each run is a single writeset; otherwise the bound
   keeps readers waiting on [V_local] from being starved by an
   arbitrarily long backlog drained into one publish. A single-writeset
   run installs and publishes directly: no partition, no fork. *)
let sequencer t () =
  let parallelism = t.cfg.Config.apply_parallelism in
  let max_run = if parallelism = 1 then 1 else 4 * parallelism in
  let rec collect v acc n =
    if n >= max_run then List.rev acc
    else
      match Itbl.find_opt t.slots v with
      | Some (Refresh { ws; trace }) ->
        dequeue t v ws;
        collect (v + 1) ((v, trace, ws) :: acc) (n + 1)
      | Some (Local _) | None -> List.rev acc
  in
  let rec loop () =
    let next () = v_local t + 1 in
    Sim.Condition.await t.slot_arrived (fun () ->
        (not t.crashed) && Itbl.mem t.slots (next ()));
    let v = next () in
    (match Itbl.find_opt t.slots v with
    | None -> ()  (* crashed and cleaned up while waking; re-loop *)
    | Some (Refresh { ws; trace }) -> (
      dequeue t v ws;
      let rest = collect (v + 1) [] 1 in
      (match t.metrics with
      | Some m -> Metrics.note_apply_group m ~size:(1 + List.length rest)
      | None -> ());
      let epoch = t.epoch in
      match rest with
      | [] ->
        install t ~epoch ~lane:0 v trace ws;
        publish_run t ~epoch ~first:v ~last:v
      | rest -> apply_refresh_group t ~epoch ~first:v ((v, trace, ws) :: rest))
    | Some (Local { ws; done_ }) ->
      Itbl.remove t.slots v;
      t.taken <- v;
      let commit_start = Sim.Engine.now t.engine in
      Sim.Resource.use t.cpu ~duration:(service_time t t.cfg.Config.commit_ms);
      Storage.Database.apply t.db ws ~version:v;
      (* A repair resend can re-queue [v] as a Refresh while the commit
         held the CPU; it is now applied, so drop the stale slot and its
         pending keys. *)
      (match Itbl.find_opt t.slots v with
      | Some (Refresh { ws = rws; _ }) ->
        remove_pending_keys t rws;
        Itbl.remove t.slots v
      | Some (Local _) | None -> ());
      Sim.Condition.broadcast t.version_changed;
      notify_commit t ~version:v;
      Sim.Ivar.fill done_ (Ok commit_start));
    loop ()
  in
  loop ()

let start t =
  Sim.Process.spawn t.engine (sequencer t);
  if t.cfg.Config.hiccup_interval_ms > 0.0 then Sim.Process.spawn t.engine (hiccups t)

let await_version ?deadline t v =
  let expired () =
    match deadline with Some d -> Sim.Engine.now t.engine >= d | None -> false
  in
  (* A waiter with a deadline needs a wakeup at the deadline even if no
     version ever arrives; the scheduled broadcast is spurious for other
     waiters (they re-check their predicate and re-suspend). *)
  (match deadline with
  | Some d when (not t.crashed) && v_local t < v ->
    Sim.Engine.schedule t.engine ~delay:(Float.max 0.0 (d -. Sim.Engine.now t.engine))
      (fun () -> Sim.Condition.broadcast t.version_changed)
  | _ -> ());
  Sim.Condition.await t.version_changed (fun () ->
      t.crashed || v_local t >= v || expired ());
  if t.crashed then Error Transaction.Replica_failure
  else if v_local t >= v then Ok ()
  else Error Transaction.Timeout

let begin_txn t ~tid =
  let txn = Storage.Txn.begin_ t.db in
  Itbl.replace t.active tid (txn, ref false);
  txn

let abort_requested t ~tid =
  match Itbl.find_opt t.active tid with
  | Some (_, flag) -> !flag
  | None -> false

let early_certify t txn =
  (not t.cfg.Config.early_certification)
  ||
  (* Probe the write buffer's conflict ids against the pending-key
     index: O(writes so far) however deep the refresh backlog, and no
     writeset is built until commit. *)
  not (Storage.Txn.exists_write_id txn (Util.Tables.Itbl.mem t.pending_keys))

let finish_txn t ~tid = Itbl.remove t.active tid

let exec_statement t txn stmt =
  Sim.Resource.acquire t.cpu;
  let result, cost = Storage.Query.exec txn stmt in
  let work =
    t.cfg.Config.stmt_base_ms
    +. (float_of_int cost.Storage.Txn.rows_scanned *. t.cfg.Config.row_scan_ms)
    +. (float_of_int cost.Storage.Txn.rows_read *. t.cfg.Config.row_read_ms)
    +. (float_of_int cost.Storage.Txn.rows_written *. t.cfg.Config.row_write_ms)
  in
  Sim.Process.sleep t.engine (service_time t work);
  Sim.Resource.release t.cpu;
  result

let commit_local t ~version ~ws =
  let done_ = Sim.Ivar.create t.engine in
  if t.crashed then Sim.Ivar.fill done_ (Error Transaction.Replica_failure)
  else if version <= v_local t then
    (* The certifier's refresh-repair resend already carried (and the
       sequencer applied) this version while our decision response was in
       flight: the writeset is installed, the commit is done. *)
    Sim.Ivar.fill done_ (Ok (Sim.Engine.now t.engine))
  else begin
    (match Itbl.find_opt t.slots version with
    | Some (Refresh { ws = rws; _ }) ->
      (* Same race, one step earlier: a repair resend queued our own
         commit as a refresh. Reclaim the slot for the local commit (the
         writesets are identical; the Local path fills [done_]). *)
      remove_pending_keys t rws
    | Some (Local _) | None -> ());
    Itbl.replace t.slots version (Local { ws; done_ });
    Sim.Condition.broadcast t.slot_arrived
  end;
  done_

let commit_read_only t _txn =
  Sim.Resource.use t.cpu ~duration:(service_time t t.cfg.Config.ro_commit_ms)

let enqueue_refresh_batch t items =
  begin
    List.iter
      (fun (trace, version, ws) ->
        (* Dedup by version: the network may duplicate batches and the
           certifier's repair loop re-sends un-acked suffixes, so any
           version already applied (<= V_local) or already queued —
           including our own pending Local commit, which a repair resend
           must never clobber — is dropped here. Refresh delivery is
           thereby idempotent; versions are the sequence numbers. *)
        if version > v_local t && not (Itbl.mem t.slots version) then begin
          let kids = cids t ws in
          (* Early certification: abort active local transactions whose
             partial writesets conflict with an incoming refresh
             writeset — each probes its own write table with the
             refresh's ids. *)
          if t.cfg.Config.early_certification then
            Itbl.iter
              (fun _ (txn, flag) ->
                if (not !flag) && Array.exists (Storage.Txn.writes_id txn) kids then
                  flag := true)
              t.active;
          add_pending_keys t kids;
          Itbl.replace t.slots version (Refresh { ws; trace })
        end)
      items;
    Sim.Condition.broadcast t.slot_arrived
  end

let receive_refresh_batch ?(epoch = 0) t items =
  if not t.crashed then begin
    (* Certifier epoch fence: a batch from an epoch older than one we
       have already seen was released by a deposed primary — its
       versions may collide with the surviving history, so the whole
       batch is dropped and counted. A higher epoch is adopted. With no
       certifier failover every batch carries epoch 0 and the fence is
       inert. *)
    if epoch < t.cert_epoch then t.fenced_refreshes <- t.fenced_refreshes + 1
    else begin
      if epoch > t.cert_epoch then t.cert_epoch <- epoch;
      enqueue_refresh_batch t items
    end
  end

let cert_epoch t = t.cert_epoch

let fenced_refreshes t = t.fenced_refreshes

let receive_refresh ?trace ?epoch t ~version ~ws =
  receive_refresh_batch ?epoch t [ (trace, version, ws) ]

let set_on_commit t f = t.on_commit <- Some f

let crash t =
  t.crashed <- true;
  t.taken <- 0;
  t.epoch <- t.epoch + 1;  (* cancel the in-flight refresh run *)
  (* Queued refreshes are dropped below: the pending set empties, so the
     key index resets with it. *)
  Util.Tables.Itbl.reset t.pending_keys;
  (* Abort in-flight local transactions. *)
  Itbl.iter (fun _ (_, flag) -> flag := true) t.active;
  Itbl.reset t.active;
  (* Fail local commits waiting for their sync turn; drop queued
     refreshes — recovery will replay them from the certifier log. *)
  let locals =
    Itbl.fold
      (fun _ slot acc ->
        match slot with Local { done_; _ } -> done_ :: acc | Refresh _ -> acc)
      t.slots []
  in
  Itbl.reset t.slots;
  List.iter (fun done_ -> Sim.Ivar.fill done_ (Error Transaction.Replica_failure)) locals;
  (* Wake waiters so they observe the crash. *)
  Sim.Condition.broadcast t.version_changed;
  Sim.Condition.broadcast t.slot_arrived

let state_transfer t donor =
  if not t.crashed then invalid_arg "Replica.state_transfer: replica is running";
  t.db <- Storage.Database.copy donor

let recover t ~missed =
  List.iter
    (fun (version, ws) ->
      if version > v_local t then begin
        if not (Itbl.mem t.slots version) then add_pending_keys t (cids t ws);
        Itbl.replace t.slots version (Refresh { ws; trace = None })
      end)
    missed;
  t.crashed <- false;
  Sim.Condition.broadcast t.slot_arrived

let active_local t = Itbl.length t.active

let pending_refresh t =
  Itbl.fold (fun _ slot n -> match slot with Refresh _ -> n + 1 | Local _ -> n) t.slots 0

let applied_refresh t = t.applied_refresh
