module Stbl = Util.Tables.Stbl

type stage = Version | Queries | Certify | Sync | Commit | Global

let stage_index = function
  | Version -> 0
  | Queries -> 1
  | Certify -> 2
  | Sync -> 3
  | Commit -> 4
  | Global -> 5

let stage_count = 6

let stage_name = function
  | Version -> "version"
  | Queries -> "queries"
  | Certify -> "certify"
  | Sync -> "sync"
  | Commit -> "commit"
  | Global -> "global"

let stages = [ Version; Queries; Certify; Sync; Commit; Global ]

type t = {
  engine : Sim.Engine.t;
  mutable window_start : float;
  mutable committed : int;
  mutable updates : int;
  mutable aborted : int;
  mutable retry_exhausted : int;
  mutable max_queue_depth : int;
  response : Util.Stats.t;
  stage_sums : float array;  (* over all committed txns *)
  stage_sums_update : float array;  (* over update txns only *)
  (* pipeline batching: certifier group sizes and replica apply groups *)
  mutable cert_batches : int;
  mutable cert_batched_txns : int;
  mutable apply_groups : int;
  mutable apply_group_txns : int;
  (* per-reason abort breakdown (keys are Transaction.abort_slug values) *)
  aborts_by_reason : int Stbl.t;
  outage_windows : Util.Stats.t;  (* commit-outage span per promotion, ms *)
  (* the cluster's monotonic totals, each with its count at window start *)
  mutable totals : total list;
  (* per-read-tier breakdown (docs/CONSISTENCY.md): keyed by
     Consistency.tier_slug; populated only for read-only commits, so it
     stays empty in runs that never commit a read *)
  tiers : tier_stat Stbl.t;
  (* per-outcome observer (the run-health observatory); None = zero cost *)
  mutable observer : (outcome -> unit) option;
}

and total = { name : string; read : unit -> int; mutable base : int }

and tier_stat = {
  mutable tier_n : int;
  tier_response : Util.Stats.t;
  tier_staleness : Util.Stats.t;  (* V_system - snapshot at response *)
}

and outcome = {
  out_committed : bool;
  out_read_only : bool;
  out_response_ms : float;
  out_stages : float array;
  out_tier : string;  (* Consistency.tier_slug; "strong" for updates *)
  out_staleness : int;  (* versions behind V_system at response; reads only *)
}

let create engine =
  {
    engine;
    window_start = Sim.Engine.now engine;
    committed = 0;
    updates = 0;
    aborted = 0;
    retry_exhausted = 0;
    max_queue_depth = 0;
    response = Util.Stats.create ();
    stage_sums = Array.make stage_count 0.0;
    stage_sums_update = Array.make stage_count 0.0;
    cert_batches = 0;
    cert_batched_txns = 0;
    apply_groups = 0;
    apply_group_txns = 0;
    aborts_by_reason = Stbl.create 8;
    outage_windows = Util.Stats.create ();
    totals = [];
    tiers = Stbl.create 4;
    observer = None;
  }

let set_observer t obs = t.observer <- obs

(* --- Window totals ---------------------------------------------------

   A total is a monotonic source owned elsewhere (certifier, network,
   fault plan, ...). Its window count is its reading minus its reading
   at window start, so the window needs no copy of the counter. *)

let add_total t name read = t.totals <- t.totals @ [ { name; read; base = read () } ]

let window_count w = w.read () - w.base

let total t name =
  match List.find_opt (fun w -> String.equal w.name name) t.totals with
  | Some w -> window_count w
  | None -> 0

let totals t = List.map (fun w -> (w.name, window_count w)) t.totals

let reset_window t =
  t.window_start <- Sim.Engine.now t.engine;
  t.committed <- 0;
  t.updates <- 0;
  t.aborted <- 0;
  t.retry_exhausted <- 0;
  t.max_queue_depth <- 0;
  Util.Stats.clear t.response;
  Array.fill t.stage_sums 0 stage_count 0.0;
  Array.fill t.stage_sums_update 0 stage_count 0.0;
  t.cert_batches <- 0;
  t.cert_batched_txns <- 0;
  t.apply_groups <- 0;
  t.apply_group_txns <- 0;
  Stbl.reset t.aborts_by_reason;
  Util.Stats.clear t.outage_windows;
  List.iter (fun w -> w.base <- w.read ()) t.totals;
  Stbl.reset t.tiers

let note_cert_batch t ~size =
  t.cert_batches <- t.cert_batches + 1;
  t.cert_batched_txns <- t.cert_batched_txns + size

let note_apply_group t ~size =
  t.apply_groups <- t.apply_groups + 1;
  t.apply_group_txns <- t.apply_group_txns + size

let cert_batches t = t.cert_batches

let mean_cert_batch t =
  if t.cert_batches = 0 then 0.0
  else float_of_int t.cert_batched_txns /. float_of_int t.cert_batches

let apply_groups t = t.apply_groups

let mean_apply_group t =
  if t.apply_groups = 0 then 0.0
  else float_of_int t.apply_group_txns /. float_of_int t.apply_groups

(* --- The per-transaction stage clock -------------------------------

   One recorder drives both consumers of stage timing: the aggregate
   stage sums above and, when tracing is enabled, per-stage trace spans.
   [Cluster.submit] marks stage transitions once; there is no parallel
   bookkeeping channel. *)

type txn = {
  m : t;
  obs : Obs.Trace.t option;
  trace_id : int option;
  root : Obs.Span.t option;
  begin_time : float;
  values : float array;
  mutable component : Obs.Span.component;
  (* The open stage, flattened into parallel fields: stage transitions
     run six times per transaction, and a boxed (stage, start, span)
     tuple per transition was measurable allocator traffic. *)
  mutable open_stage : stage option;
  mutable open_start : float;
  mutable open_span : Obs.Span.t option;
}

let txn_begin ?obs ?(sid = 0) ~name t =
  let trace_id = Option.map Obs.Trace.next_trace_id obs in
  let root =
    match (obs, trace_id) with
    | Some tr, Some id ->
      Some
        (Obs.Trace.start tr ~trace_id:id ~component:(Obs.Span.Client sid) ~name
           ~args:[ ("session", string_of_int sid) ]
           ())
    | _ -> None
  in
  {
    m = t;
    obs;
    trace_id;
    root;
    begin_time = Sim.Engine.now t.engine;
    values = Array.make stage_count 0.0;
    component = Obs.Span.Client sid;
    open_stage = None;
    open_start = 0.0;
    open_span = None;
  }

let txn_trace_id txn = txn.trace_id

let txn_root_span txn = txn.root

let txn_stages txn = txn.values

let txn_locate txn ~replica = txn.component <- Obs.Span.Replica replica

let now_of txn = Sim.Engine.now txn.m.engine

let txn_response_ms txn = now_of txn -. txn.begin_time

let stage_enter ?at txn stage =
  assert (txn.open_stage = None);
  let start = match at with Some time -> time | None -> now_of txn in
  let span =
    match (txn.obs, txn.trace_id) with
    | Some tr, Some trace_id ->
      Some
        (Obs.Trace.start tr ~trace_id ?parent:txn.root ~at:start
           ~component:txn.component ~name:(stage_name stage) ())
    | _ -> None
  in
  txn.open_stage <- Some stage;
  txn.open_start <- start;
  txn.open_span <- span

let stage_exit ?at txn stage =
  match txn.open_stage with
  | None -> invalid_arg "Metrics.stage_exit: no open stage"
  | Some open_stage ->
    if open_stage <> stage then invalid_arg "Metrics.stage_exit: stage mismatch";
    let stop = match at with Some time -> time | None -> now_of txn in
    txn.values.(stage_index stage) <-
      txn.values.(stage_index stage) +. (stop -. txn.open_start);
    (match (txn.obs, txn.open_span) with
    | Some tr, Some span -> Obs.Trace.finish tr ~at:stop span
    | _ -> ());
    txn.open_stage <- None;
    txn.open_span <- None

let close_open_stage txn =
  match txn.open_stage with
  | Some stage -> stage_exit txn stage
  | None -> ()

let tier_stat t slug =
  match Stbl.find_opt t.tiers slug with
  | Some s -> s
  | None ->
    let s =
      { tier_n = 0; tier_response = Util.Stats.create (); tier_staleness = Util.Stats.create () }
    in
    Stbl.replace t.tiers slug s;
    s

let record_commit ?(tier = "strong") ?(staleness = 0) t ~read_only ~stages ~response_ms =
  t.committed <- t.committed + 1;
  Util.Stats.add t.response response_ms;
  Array.iteri (fun i v -> t.stage_sums.(i) <- t.stage_sums.(i) +. v) stages;
  if not read_only then begin
    t.updates <- t.updates + 1;
    Array.iteri (fun i v -> t.stage_sums_update.(i) <- t.stage_sums_update.(i) +. v) stages
  end
  else begin
    let s = tier_stat t tier in
    s.tier_n <- s.tier_n + 1;
    Util.Stats.add s.tier_response response_ms;
    Util.Stats.add s.tier_staleness (float_of_int staleness)
  end

let record_abort ?slug t =
  t.aborted <- t.aborted + 1;
  match slug with
  | None -> ()
  | Some slug ->
    let n = Option.value ~default:0 (Stbl.find_opt t.aborts_by_reason slug) in
    Stbl.replace t.aborts_by_reason slug (n + 1)

let aborts_by_reason t =
  Stbl.fold (fun k v acc -> (k, v) :: acc) t.aborts_by_reason []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare (b : int) a with 0 -> compare ka kb | c -> c)

let note_promotion t ~outage_ms = Util.Stats.add t.outage_windows outage_ms

let outage_max_ms t = Util.Stats.max_value t.outage_windows

let retransmits t = total t "net.retransmits" + total t "certifier.retransmits"

let notify ?(tier = "strong") ?(staleness = 0) txn ~committed ~read_only =
  match txn.m.observer with
  | None -> ()
  | Some f ->
    f
      {
        out_committed = committed;
        out_read_only = read_only;
        out_response_ms = txn_response_ms txn;
        out_stages = txn.values;
        out_tier = tier;
        out_staleness = staleness;
      }

let txn_commit ?(args = []) ?(tier = "strong") ?(staleness = 0) txn ~read_only =
  close_open_stage txn;
  record_commit txn.m ~tier ~staleness ~read_only ~stages:txn.values
    ~response_ms:(txn_response_ms txn);
  notify txn ~tier ~staleness ~committed:true ~read_only;
  match (txn.obs, txn.root) with
  | Some tr, Some root ->
    Obs.Trace.finish tr root
      ~args:(("outcome", if read_only then "committed_ro" else "committed") :: args)
  | _ -> ()

let txn_abort ?slug txn ~reason =
  close_open_stage txn;
  record_abort ?slug txn.m;
  notify txn ~committed:false ~read_only:false;
  match (txn.obs, txn.root) with
  | Some tr, Some root ->
    Obs.Trace.finish tr root ~args:[ ("outcome", "aborted"); ("reason", reason) ]
  | _ -> ()

let record_retry_exhausted t = t.retry_exhausted <- t.retry_exhausted + 1

let note_queue_depth t depth =
  if depth > t.max_queue_depth then t.max_queue_depth <- depth

let shed t = total t "txn.shed"

let retry_budget_exhausted t = total t "txn.retry_budget_exhausted"

let deadline_expired t = total t "txn.deadline_expired"

let max_queue_depth t = t.max_queue_depth

let window_ms t = Sim.Engine.now t.engine -. t.window_start

let committed t = t.committed

let aborted t = t.aborted

let retry_exhausted t = t.retry_exhausted

let throughput_tps t =
  let ms = window_ms t in
  if ms <= 0.0 then 0.0 else float_of_int t.committed /. (ms /. 1000.0)

let mean_response_ms t = Util.Stats.mean t.response

let percentile_response_ms t p = Util.Stats.percentile t.response p

let mean_stage_ms t stage =
  if t.committed = 0 then 0.0
  else t.stage_sums.(stage_index stage) /. float_of_int t.committed

let mean_stage_update_ms t stage =
  if t.updates = 0 then 0.0
  else t.stage_sums_update.(stage_index stage) /. float_of_int t.updates

let sync_delay_ms t = mean_stage_ms t Version +. mean_stage_update_ms t Global

let abort_rate t =
  let total = t.committed + t.aborted in
  if total = 0 then 0.0 else float_of_int t.aborted /. float_of_int total

(* --- Per-read-tier breakdown ---------------------------------------- *)

let tier_slugs t =
  Stbl.fold (fun k _ acc -> k :: acc) t.tiers [] |> List.sort compare

let tier_committed t slug =
  match Stbl.find_opt t.tiers slug with Some s -> s.tier_n | None -> 0

let tier_mean_response_ms t slug =
  match Stbl.find_opt t.tiers slug with
  | Some s -> Util.Stats.mean s.tier_response
  | None -> 0.0

let tier_percentile_response_ms t slug p =
  match Stbl.find_opt t.tiers slug with
  | Some s -> Util.Stats.percentile s.tier_response p
  | None -> 0.0

let tier_mean_staleness t slug =
  match Stbl.find_opt t.tiers slug with
  | Some s -> Util.Stats.mean s.tier_staleness
  | None -> 0.0

let tier_max_staleness t slug =
  match Stbl.find_opt t.tiers slug with
  | Some s -> Util.Stats.max_value s.tier_staleness
  | None -> 0.0

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>window %.0fms: %d committed (%.1f TPS), %d aborted (%.1f%%), %d gave up@,\
     response mean %.2fms p50 %.2fms p99 %.2fms@,"
    (window_ms t) t.committed (throughput_tps t) t.aborted (100.0 *. abort_rate t)
    t.retry_exhausted (mean_response_ms t) (percentile_response_ms t 50.0)
    (percentile_response_ms t 99.0);
  List.iter
    (fun s -> Format.fprintf ppf "%8s %.3fms@," (stage_name s) (mean_stage_ms t s))
    stages;
  (match aborts_by_reason t with
  | [] -> ()
  | reasons ->
    Format.fprintf ppf "aborts:";
    List.iter (fun (slug, n) -> Format.fprintf ppf " %s=%d" slug n) reasons;
    Format.fprintf ppf "@,");
  if Util.Stats.count t.outage_windows > 0 then
    Format.fprintf ppf "commit outages: %d, mean %.1fms max %.1fms@,"
      (Util.Stats.count t.outage_windows)
      (Util.Stats.mean t.outage_windows)
      (Util.Stats.max_value t.outage_windows);
  if t.max_queue_depth > 0 then
    Format.fprintf ppf "max queue depth %d@," t.max_queue_depth;
  (* The tier table always carries read-only commits under "strong";
     print the breakdown only once a weaker class shows up, so runs
     without tiered traffic keep the classic summary. *)
  if List.exists (fun slug -> slug <> "strong") (tier_slugs t) then
    List.iter
      (fun slug ->
        Format.fprintf ppf
          "tier %-8s %6d reads, response mean %.2fms p95 %.2fms, staleness mean %.1f max %.0f@,"
          slug (tier_committed t slug) (tier_mean_response_ms t slug)
          (tier_percentile_response_ms t slug 95.0)
          (tier_mean_staleness t slug) (tier_max_staleness t slug))
      (tier_slugs t);
  Format.fprintf ppf "@]"
