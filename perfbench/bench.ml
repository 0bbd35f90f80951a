(* The repository benchmark: three workloads, measured from outside the
   program.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Every number comes from public counters, [Core.Metrics], [Obs.Trace]
   spans, or the timing of calls into public functions (the workload's
   [next_request], the [~load] callback, [Sim.Engine.step], and a
   replay of generated requests through [Storage.Txn]). The load comes
   from one process and one thread.

   [--seconds] sets the measured window in virtual time, scaled per
   workload so that it takes roughly that many host seconds: the window
   stays a pure function of the arguments, so the virtual-time metrics
   repeat exactly at a fixed seed. With [--trace 1] the workload runs
   three times: untraced; traced and stepped one event at a time; and
   traced but run as the untraced run is, which prices tracing alone.
   Both traced runs must reproduce the untraced run's digest.
   [--workload all] runs each workload in a child process.

   The last line of standard output is the JSON result; everything
   before it is the human-readable report. See README.md. *)

open Ledger

exception Mark

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_of_ns ns = float_of_int ns /. 1e9

(* --- Host speed ------------------------------------------------------- *)

(* Other tenants of a shared host slow it by up to a third, for seconds
   to minutes at a time, and that moved host throughput by 20-25%
   between runs of one seed. A fixed piece of host work, timed just
   before each measured piece of the program, tells how fast the host is
   at that moment; host time is reported in units of it. The reference
   reads 32 MB at random, held outside the OCaml heap, and allocates
   nothing, so the program's heap, collector and counters never see
   it. *)
let reference_words = 1 lsl 22

let reference_area =
  let a = Bigarray.(Array1.create int c_layout reference_words) in
  Bigarray.Array1.fill a 1;
  a

let reference_ns () =
  let t0 = clock_ns () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + Bigarray.Array1.unsafe_get reference_area (!x land (reference_words - 1))
  done;
  ignore (Sys.opaque_identity !acc);
  clock_ns () - t0

(* Reference units are turned back into seconds at the reference's time
   on a quiet host: 2 vCPUs, OCaml 5.1.1. *)
let nominal_reference_ms = 10.0

(* Host time of [f ()], and the same in seconds of a host running the
   reference in [nominal_reference_ms]. *)
let timed f =
  let r = reference_ns () in
  let t0 = clock_ns () in
  let x = f () in
  let ns = clock_ns () - t0 in
  (ns, float_of_int ns /. float_of_int r *. nominal_reference_ms /. 1e3, x)

(* --- Workloads --------------------------------------------------------- *)

type spec = {
  name : string;
  mode : Core.Consistency.mode;
  config : int -> Core.Config.t;  (** seed -> configuration *)
  schemas : Storage.Schema.t list;
  load : Storage.Database.t -> unit;
  gen : (Core.Client.workload -> Core.Client.workload) -> Core.Client.workload;
      (** a fresh generator per simulation; the argument wraps the
          library's own generator, inside any rewriting done here *)
  drive : Core.Cluster.t -> Core.Client.workload -> unit;
  faults : (int -> Sim.Engine.t -> Sim.Faults.t) option;  (** seed -> plan *)
  crash_certifier_at : float option;  (** fraction of the measured window *)
  warmup_ms : float;
  virtual_ms_per_s : float;  (** measured virtual ms per requested host second *)
  setups : int;
  replay_requests : int;
  notes : string list;  (** printed under the header *)
}

let micro = { Workload.Microbench.tables = 40; rows = 10_000; update_types = 10 }

let micro_small = { Workload.Microbench.tables = 20; rows = 2_000; update_types = 5 }

let closed_loop n cluster gen = Core.Client.spawn_many cluster ~n ~first_sid:0 gen

(* TPC-C draws each history row's id at random below 2^30. About once
   in 30 runs a draw hits one of the 12,000 loaded ids or an earlier
   insert, and the payment fails with a duplicate key — a statement
   error the gate rejects. History ids are numbered from a counter above
   every random id instead; nothing else in the request changes. *)
let unique_history_ids (gen : Core.Client.workload) =
  let next = ref (1 lsl 30) in
  let renumber = function
    | Storage.Query.Insert { table = "history"; row } ->
      let row = Array.copy row in
      row.(0) <- Storage.Value.Int !next;
      incr next;
      Storage.Query.Insert { table = "history"; row }
    | stmt -> stmt
  in
  {
    gen with
    Core.Client.next_request =
      (fun rng ->
        let r = gen.Core.Client.next_request rng in
        { r with Core.Transaction.statements = List.map renumber r.Core.Transaction.statements });
  }

let workloads =
  [
    {
      name = "micro-session";
      mode = Core.Consistency.Session;
      config = (fun seed -> { Core.Config.default with Core.Config.seed });
      schemas = Workload.Microbench.schemas micro;
      load = Workload.Microbench.load micro;
      gen = (fun wrap -> wrap (Workload.Microbench.workload micro));
      drive = closed_loop 80;
      faults = None;
      crash_certifier_at = None;
      warmup_ms = 500.0;
      virtual_ms_per_s = 2_500.0;
      setups = 5;
      replay_requests = 40_000;
      notes = [ "closed loop: 80 clients, zero think time" ];
    };
    {
      name = "tpcc-eager";
      mode = Core.Consistency.Eager;
      (* Retry until commit: at ~2 aborts per commit the default retry
         limit gives some actions up, and every action here should end
         in a commit. Replica hiccups are off: with them, which of the
         4 replicas stalls when decides the eager tail, and p99 moved by
         half from seed to seed at this window length. *)
      config =
        (fun seed ->
          {
            Core.Config.default with
            Core.Config.seed;
            replicas = 4;
            max_retries = 1_000;
            hiccup_interval_ms = 0.0;
          });
      schemas = Workload.Tpcc.schemas;
      load = Workload.Tpcc.load Workload.Tpcc.default;
      gen =
        (fun wrap -> unique_history_ids (wrap (Workload.Tpcc.workload Workload.Tpcc.default)));
      drive = closed_loop 40;
      faults = None;
      crash_certifier_at = None;
      warmup_ms = 1_000.0;
      virtual_ms_per_s = 1_800.0;
      setups = 9;
      replay_requests = 4_000;
      notes = [ "closed loop: 40 terminals, zero think time" ];
    };
    {
      name = "failover-open";
      mode = Core.Consistency.Fine;
      config =
        (fun seed ->
          Core.Config.hardened
            {
              Core.Config.default with
              Core.Config.seed;
              replicas = 4;
              certifier_standbys = 2;
              record_log = true;
              hiccup_interval_ms = 0.0;
            });
      schemas = Workload.Microbench.schemas micro_small;
      load = Workload.Microbench.load micro_small;
      gen = (fun wrap -> wrap (Workload.Microbench.workload micro_small));
      drive =
        (fun cluster gen ->
          Core.Client.open_loop_many cluster ~n:2 ~first_sid:0 ~rate_tps:5_000.0 gen);
      faults =
        Some
          (fun seed engine ->
            (* The plan's own RNG is seeded apart from the cluster's root
               stream, as the chaos harness does. *)
            let f = Sim.Faults.create ~seed:(seed lxor 0x2b99_17c5_1e7a_3f6d) engine in
            Sim.Faults.set_default f (Sim.Faults.spec ~drop:0.01 ());
            f);
      crash_certifier_at = Some 0.4;
      warmup_ms = 500.0;
      virtual_ms_per_s = 700.0;
      setups = 15;
      replay_requests = 40_000;
      notes =
        [
          "open loop: 5000 txn/s Poisson arrivals from 2 generators; latency is per attempt";
          "generator lateness: 0 ms by construction (arrivals are scheduled in virtual time)";
        ];
    };
  ]

(* --- Instrumented set-up ------------------------------------------------ *)

(* Host time spent inside the workload's [next_request], accumulated by
   a wrapper around the closure the clients call. *)
type gen_probe = {
  mutable gen_ns : int;
  mutable gen_calls : int;
}

let probed_gen probe (gen : Core.Client.workload) =
  {
    gen with
    Core.Client.next_request =
      (fun rng ->
        let t0 = clock_ns () in
        let r = gen.Core.Client.next_request rng in
        probe.gen_ns <- probe.gen_ns + (clock_ns () - t0);
        probe.gen_calls <- probe.gen_calls + 1;
        r);
  }

type setup = {
  cluster : Core.Cluster.t;
  setup_ns : int;  (** [Cluster.create] through the first event *)
  load_ns : int;  (** inside the [~load] callbacks *)
}

(* Build the cluster, start the load and the schedule, and execute the
   first event. Two marks end the warm-up and the measured window: both
   runs of a workload stop on exactly the same event boundary, whether
   they use [Sim.Engine.run] or step one event at a time. *)
let setup spec ~seed ~tracing ~measure_ms probe =
  let load_ns = ref 0 in
  let load db =
    let t0 = clock_ns () in
    spec.load db;
    load_ns := !load_ns + (clock_ns () - t0)
  in
  let t0 = clock_ns () in
  let cluster =
    Core.Cluster.create ~config:(spec.config seed) ~tracing
      ?faults:(Option.map (fun f -> f seed) spec.faults)
      ~mode:spec.mode ~schemas:spec.schemas ~load ()
  in
  let engine = Core.Cluster.engine cluster in
  Sim.Engine.schedule_at engine ~time:spec.warmup_ms (fun () -> raise Mark);
  Sim.Engine.schedule_at engine ~time:(spec.warmup_ms +. measure_ms) (fun () -> raise Mark);
  spec.drive cluster (spec.gen (probed_gen probe));
  Option.iter
    (fun frac ->
      Sim.Process.spawn engine (fun () ->
          Sim.Process.sleep engine (spec.warmup_ms +. (frac *. measure_ms));
          Core.Cluster.crash_certifier cluster))
    spec.crash_certifier_at;
  ignore (Sim.Engine.step engine);
  { cluster; setup_ns = clock_ns () - t0; load_ns = !load_ns }

let median_int xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Set up [spec.setups] times, keeping the last cluster: set-up time is
   the median of the attempts. *)
let setup_repeated spec ~seed ~measure_ms probe =
  let rec go k acc =
    let s = setup spec ~seed ~tracing:false ~measure_ms probe in
    let acc = (s.setup_ns, s.load_ns) :: acc in
    if k <= 1 then (s, acc)
    else begin
      Gc.compact ();
      go (k - 1) acc
    end
  in
  (* Earlier attempts are garbage once [go] moves on; compacting between
     them keeps the peak heap to one cluster. *)
  let s, times = go spec.setups [] in
  (s, median_int (List.map fst times), median_int (List.map snd times))

(* --- Counters read at the window edges ---------------------------------- *)

type counters = {
  ns : int;
  events : int;
  msgs : int;
  bytes : int;
  cert_commits : int;
  cert_aborts : int;
  applied : int;
  elections : int;
  minor_words : float;
  majors : int;
  gen_ns : int;
  gen_calls : int;
}

let replicas cluster = (Core.Cluster.config cluster).Core.Config.replicas

let applied_refreshes cluster =
  let n = ref 0 in
  for i = 0 to replicas cluster - 1 do
    n := !n + Core.Replica.applied_refresh (Core.Cluster.replica cluster i)
  done;
  !n

let read_counters cluster (probe : gen_probe) =
  let net = Core.Cluster.network cluster and cert = Core.Cluster.certifier cluster in
  let cert_commits, cert_aborts = Core.Certifier.decisions cert in
  {
    ns = clock_ns ();
    events = Sim.Engine.executed (Core.Cluster.engine cluster);
    msgs = Sim.Network.messages_sent net;
    bytes = Sim.Network.bytes_sent net;
    cert_commits;
    cert_aborts;
    applied = applied_refreshes cluster;
    elections = Core.Certifier.elections cert;
    minor_words = Gc.minor_words ();
    majors = (Gc.quick_stat ()).Gc.major_collections;
    gen_ns = probe.gen_ns;
    gen_calls = probe.gen_calls;
  }

(* Start of the measured window: metrics and utilization restart here. *)
let open_window cluster =
  Core.Metrics.reset_window (Core.Cluster.metrics cluster);
  for i = 0 to replicas cluster - 1 do
    Sim.Resource.reset_utilization (Core.Replica.cpu (Core.Cluster.replica cluster i))
  done;
  Sim.Resource.reset_utilization (Core.Certifier.cpu (Core.Cluster.certifier cluster))

let run_to_mark engine = try Sim.Engine.run engine with Mark -> ()

(* --- What one run observed ---------------------------------------------- *)

type window = {
  committed : int;
  aborted : int;
  failed : int;  (** client actions given up: retry limit, retry budget, statement errors *)
  statement_errors : int;
  tps : float;
  p50 : float;
  p99 : float;
  outage_ms : float;
  stages : (Core.Metrics.stage * float) list;  (** mean over update transactions *)
  sync_delay : float;  (** the paper's synchronization delay *)
  replica_util : float;
  cert_util : float;
  cert_batch : float;
  retransmits : int;
  c0 : counters;
  c1 : counters;
}

let abort_ratio w =
  let total = w.committed + w.aborted in
  if total = 0 then 0.0 else float_of_int w.aborted /. float_of_int total

let attempted w = w.committed + w.failed

let fail_ratio w =
  if attempted w = 0 then 0.0 else float_of_int w.failed /. float_of_int (attempted w)

let close_window cluster c0 c1 =
  let m = Core.Cluster.metrics cluster in
  let failed = Core.Metrics.retry_exhausted m + Core.Metrics.retry_budget_exhausted m in
  let util = ref 0.0 in
  for i = 0 to replicas cluster - 1 do
    util := !util +. Sim.Resource.utilization (Core.Replica.cpu (Core.Cluster.replica cluster i))
  done;
  {
    committed = Core.Metrics.committed m;
    aborted = Core.Metrics.aborted m;
    failed;
    statement_errors =
      Option.value ~default:0
        (List.assoc_opt "statement_error" (Core.Metrics.aborts_by_reason m));
    tps = Core.Metrics.throughput_tps m;
    p50 = Core.Metrics.percentile_response_ms m 50.0;
    p99 = Core.Metrics.percentile_response_ms m 99.0;
    outage_ms = Core.Metrics.outage_max_ms m;
    stages = List.map (fun s -> (s, Core.Metrics.mean_stage_update_ms m s)) Core.Metrics.stages;
    sync_delay = Core.Metrics.sync_delay_ms m;
    replica_util = !util /. float_of_int (replicas cluster);
    cert_util = Sim.Resource.utilization (Core.Certifier.cpu (Core.Cluster.certifier cluster));
    cert_batch = Core.Metrics.mean_cert_batch m;
    retransmits = Core.Metrics.retransmits m;
    c0;
    c1;
  }

(* The six virtual-time metrics, rendered exactly (hex floats). *)
let virtual_digest w =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d %d %d %h %h %h %h %h %h" w.committed w.aborted w.failed w.tps
          w.p50 w.p99 (abort_ratio w) (fail_ratio w) w.outage_ms))

(* --- The correctness gate ----------------------------------------------- *)

type gate = {
  drained_ms : float option;  (** [None]: some live replica never caught up *)
  battery : (string * int) list;  (** run-log checker -> violations *)
  duplicate_versions : int;
  promotions : int;
  runlog_digest : string option;
  battery_ns : int;
  battery_nominal_s : float;  (** [battery_ns] at nominal host speed *)
}

(* After the window: keep running until every live replica has applied
   the certifier version current when the drain began. [each_slice]
   lets the traced run empty its span buffer as it goes. *)
let drain ?(each_slice = ignore) cluster =
  let engine = Core.Cluster.engine cluster in
  let target = Core.Certifier.version (Core.Cluster.certifier cluster) in
  let start = Sim.Engine.now engine in
  let caught_up () =
    let ok = ref true in
    for i = 0 to replicas cluster - 1 do
      let r = Core.Cluster.replica cluster i in
      if (not (Core.Replica.is_crashed r)) && Core.Replica.v_local r < target then ok := false
    done;
    !ok
  in
  let rec go slices =
    if caught_up () then Some (Sim.Engine.now engine -. start)
    else if slices = 0 then None
    else begin
      Sim.Engine.run engine ~until:(Sim.Engine.now engine +. 50.0);
      each_slice ();
      go (slices - 1)
    end
  in
  go 200

let count_duplicate_versions records =
  let seen = Hashtbl.create 4096 in
  List.fold_left
    (fun acc r ->
      match r.Check.Runlog.commit_version with
      | None -> acc
      | Some v ->
        if Hashtbl.mem seen v then acc + 1
        else begin
          Hashtbl.add seen v ();
          acc
        end)
    0 records

let battery_checks =
  [
    ("fine_strong_consistency", Check.Runlog.fine_strong_consistency);
    ("first_committer_wins", Check.Runlog.first_committer_wins);
    ("epoch_fencing", Check.Runlog.epoch_fencing);
    ("election_safety", Check.Runlog.election_safety);
  ]

(* The checks are deterministic, so repeating them re-measures only
   their host time; the median of [repeat] passes is reported. *)
let check_gate ?each_slice ?(repeat = 1) cluster =
  let drained_ms = drain ?each_slice cluster in
  let promotions = Core.Certifier.promotions (Core.Cluster.certifier cluster) in
  if not (Core.Cluster.config cluster).Core.Config.record_log then
    { drained_ms; battery = []; duplicate_versions = 0; promotions; runlog_digest = None;
      battery_ns = 0; battery_nominal_s = 0.0 }
  else begin
    (* Each step of a pass is timed against its own reference run, so
       a change in host speed during a pass is tracked too. *)
    let pass () =
      let ns = ref 0 and nominal_s = ref 0.0 in
      let step f =
        let n, s, x = timed f in
        ns := !ns + n;
        nominal_s := !nominal_s +. s;
        x
      in
      let records = step (fun () -> Core.Cluster.records cluster) in
      let battery =
        List.map
          (fun (name, check) -> (name, step (fun () -> List.length (check records))))
          battery_checks
      in
      let duplicate_versions = step (fun () -> count_duplicate_versions records) in
      (!ns, !nominal_s, (records, battery, duplicate_versions))
    in
    let passes = List.init (max 1 repeat) (fun _ -> pass ()) in
    let _, _, (records, battery, duplicate_versions) = List.hd passes in
    {
      drained_ms;
      battery;
      duplicate_versions;
      promotions;
      runlog_digest = Some (Check.Runlog.digest records);
      battery_ns = median_int (List.map (fun (ns, _, _) -> ns) passes);
      battery_nominal_s = median (List.map (fun (_, s, _) -> s) passes);
    }
  end

let gate_failures spec w g =
  let fail cond msg = if cond then [ msg ] else [] in
  List.concat
    [
      fail (g.drained_ms = None) "a live replica never caught up after the window";
      fail (w.statement_errors > 0)
        (Printf.sprintf "%d statement-error aborts" w.statement_errors);
      List.concat_map
        (fun (name, n) -> fail (n > 0) (Printf.sprintf "%s: %d violations" name n))
        g.battery;
      fail (g.duplicate_versions > 0)
        (Printf.sprintf "%d duplicate commit versions" g.duplicate_versions);
      fail
        (spec.crash_certifier_at <> None && g.promotions < 1)
        "the certifier crash was never followed by an automatic promotion";
      fail
        (not (percentile_reportable ~n:w.committed ~p:99.0))
        "too few samples beyond p99";
    ]

(* --- The untraced run ---------------------------------------------------- *)

type untraced = {
  w : window;
  gate : gate;
  slices : (int * float * int) list;
      (** host ns, nominal host s and commits of each slice of the window *)
  setup_s : float;
  load_s : float;
  peak_heap_mb : float;
}

(* The untraced window runs in [slices] equal spans of virtual time,
   the last ending on the mark, each timed against the host-speed
   reference. [Sim.Engine.run ~until] executes the same events in the
   same order, so slicing changes no virtual-time figure. *)
let slices = 10

let run_untraced spec ~seed ~measure_ms =
  let probe = { gen_ns = 0; gen_calls = 0 } in
  let s, setup_ns, load_ns = setup_repeated spec ~seed ~measure_ms probe in
  let cluster = s.cluster in
  let engine = Core.Cluster.engine cluster and m = Core.Cluster.metrics cluster in
  run_to_mark engine;
  open_window cluster;
  let c0 = read_counters cluster probe in
  let slice k =
    let n0 = Core.Metrics.committed m in
    let ns, nominal_s, () =
      timed (fun () ->
          if k < slices then
            Sim.Engine.run engine
              ~until:(spec.warmup_ms +. (float_of_int k *. measure_ms /. float_of_int slices))
          else run_to_mark engine)
    in
    (ns, nominal_s, Core.Metrics.committed m - n0)
  in
  let slices = List.init slices (fun k -> slice (k + 1)) in
  let c1 = read_counters cluster probe in
  let w = close_window cluster c0 c1 in
  let gate = check_gate ~repeat:3 cluster in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  { w; gate; slices; setup_s = seconds_of_ns setup_ns; load_s = seconds_of_ns load_ns;
    peak_heap_mb }

(* Host time of the window itself, without the reference runs. *)
let window_ns u = List.fold_left (fun acc (ns, _, _) -> acc + ns) 0 u.slices

(* Host wall time a user waits for the window at nominal host speed:
   the committed count times the median slice's time per transaction,
   so that a burst of other load moves one slice, not the figure. On a
   workload with a run log this includes the checker battery, because a
   soak is not done until it is checked. *)
let host_s u =
  let per_txn =
    List.filter_map
      (fun (_, s, n) -> if n = 0 then None else Some (s /. float_of_int n))
      u.slices
  in
  (float_of_int u.w.committed *. median per_txn) +. u.gate.battery_nominal_s

(* --- The traced, stepped run --------------------------------------------- *)

(* What a slow step did, read from public counters around it. *)
type step_info = {
  index : int;
  vtime : float;
  words : float;
  d_commits : int;
  d_aborts : int;
  d_decisions : int;
  d_applied : int;
  d_msgs : int;
  finished : string list;
  mutable started : string list;
}

type traced = {
  tw : window;
  tgate : gate;
  steps : int;
  step_ns : int;  (** summed over steps *)
  slow : unit Top_k.t;  (** slowest 0.1% of steps *)
  slowest : step_info Top_k.t;  (** the diagnostic table *)
  spans : int;
  dropped : int;
  self_client : float;
  self_replica : float;
  self_certifier : float;
  queue_ms_sum : float;
  queue_ms_n : int;
}

let span_label (s : Obs.Span.t) =
  s.Obs.Span.name ^ "@" ^ Obs.Span.component_name s.Obs.Span.component

(* "name@component x count", most frequent first. *)
let summarize labels =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun l -> Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
    labels;
  Hashtbl.fold (fun l n acc -> (l, n) :: acc) tbl []
  |> List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
  |> List.map (fun (l, n) -> if n = 1 then l else Printf.sprintf "%s x%d" l n)
  |> String.concat ", "

let run_traced spec ~seed ~measure_ms ~events_hint =
  let probe = { gen_ns = 0; gen_calls = 0 } in
  let s = setup spec ~seed ~tracing:true ~measure_ms probe in
  let cluster = s.cluster in
  let engine = Core.Cluster.engine cluster in
  let tr = Option.get (Core.Cluster.trace cluster) in
  let m = Core.Cluster.metrics cluster in
  let cert = Core.Cluster.certifier cluster in
  let net = Core.Cluster.network cluster in
  (* Warm-up: step, and empty the span buffer before it can wrap. *)
  let flush_every = 32_768 in
  (try
     while true do
       ignore (Sim.Engine.step engine);
       if Obs.Trace.length tr >= flush_every then Obs.Trace.clear tr
     done
   with Mark -> ());
  Obs.Trace.clear tr;
  open_window cluster;
  (* Span accounting: self time per component class, and the
     certifier's recorded queue wait. Children are gathered under their
     parent's id until the parent finishes. *)
  let children : (int, (float * float) list) Hashtbl.t = Hashtbl.create 4096 in
  let spans = ref 0 and dropped = ref 0 in
  let self_client = ref 0.0 and self_replica = ref 0.0 and self_certifier = ref 0.0 in
  let queue_ms_sum = ref 0.0 and queue_ms_n = ref 0 in
  let admitted_at : (float, step_info) Hashtbl.t = Hashtbl.create 64 in
  let account (sp : Obs.Span.t) =
    incr spans;
    let start = sp.Obs.Span.start_ms and stop = sp.Obs.Span.end_ms in
    (match sp.Obs.Span.parent with
    | Some p ->
      Hashtbl.replace children p
        ((start, stop) :: Option.value ~default:[] (Hashtbl.find_opt children p))
    | None -> ());
    let kids = Option.value ~default:[] (Hashtbl.find_opt children sp.Obs.Span.id) in
    Hashtbl.remove children sp.Obs.Span.id;
    let self = self_time ~start ~stop kids in
    (match sp.Obs.Span.component with
    | Obs.Span.Client _ -> if sp.Obs.Span.parent = None then self_client := !self_client +. self
    | Obs.Span.Replica _ -> self_replica := !self_replica +. self
    | Obs.Span.Certifier ->
      self_certifier := !self_certifier +. self;
      Option.iter
        (fun q ->
          queue_ms_sum := !queue_ms_sum +. float_of_string q;
          incr queue_ms_n)
        (List.assoc_opt "queue_ms" sp.Obs.Span.args)
    | Obs.Span.Load_balancer -> ());
    List.iter
      (fun info -> info.started <- span_label sp :: info.started)
      (Hashtbl.find_all admitted_at start)
  in
  let flush () =
    dropped := !dropped + Obs.Trace.dropped tr;
    List.iter account (Obs.Trace.spans tr);
    Obs.Trace.clear tr
  in
  let slow_k = max 1 (int_of_float (ceil (0.001 *. float_of_int events_hint))) in
  let slow = Top_k.create slow_k and slowest = Top_k.create 20 in
  let steps = ref 0 and step_ns = ref 0 in
  let commits = ref (Core.Metrics.committed m) and aborts = ref (Core.Metrics.aborted m) in
  let decisions () =
    let c, a = Core.Certifier.decisions cert in
    c + a
  in
  let decided = ref (decisions ()) and applied = ref (applied_refreshes cluster) in
  let msgs = ref (Sim.Network.messages_sent net) in
  let c0 = read_counters cluster probe in
  (try
     while true do
       let before = Obs.Trace.length tr in
       let w0 = Gc.minor_words () in
       let t0 = clock_ns () in
       ignore (Sim.Engine.step engine);
       let dt = clock_ns () - t0 in
       let words = Gc.minor_words () -. w0 in
       incr steps;
       step_ns := !step_ns + dt;
       Top_k.offer slow dt ignore;
       let commits' = Core.Metrics.committed m and aborts' = Core.Metrics.aborted m in
       let decided' = decisions () and applied' = applied_refreshes cluster in
       let msgs' = Sim.Network.messages_sent net in
       Top_k.offer slowest dt (fun () ->
           let all = Obs.Trace.spans tr in
           let finished = List.filteri (fun i _ -> i >= before) all in
           let info =
             {
               index = !steps;
               vtime = Sim.Engine.now engine;
               words;
               d_commits = commits' - !commits;
               d_aborts = aborts' - !aborts;
               d_decisions = decided' - !decided;
               d_applied = applied' - !applied;
               d_msgs = msgs' - !msgs;
               finished = List.map span_label finished;
               started = [];
             }
           in
           Hashtbl.add admitted_at info.vtime info;
           info);
       commits := commits';
       aborts := aborts';
       decided := decided';
       applied := applied';
       msgs := msgs';
       if Obs.Trace.length tr >= flush_every then flush ()
     done
   with Mark -> ());
  flush ();
  let c1 = read_counters cluster probe in
  let tw = close_window cluster c0 c1 in
  let clear_slice () =
    dropped := !dropped + Obs.Trace.dropped tr;
    Obs.Trace.clear tr
  in
  let tgate = check_gate ~each_slice:clear_slice cluster in
  {
    tw;
    tgate;
    steps = !steps;
    step_ns = !step_ns;
    slow;
    slowest;
    spans = !spans;
    dropped = !dropped;
    self_client = !self_client;
    self_replica = !self_replica;
    self_certifier = !self_certifier;
    queue_ms_sum = !queue_ms_sum;
    queue_ms_n = !queue_ms_n;
  }

(* The cost of tracing alone: the workload built with [~tracing:true]
   and run to the marks exactly as the untraced run is, with no probes.
   Spans beyond the buffer's capacity overwrite the oldest, which costs
   the program what keeping them would. Returns the window's virtual
   digest and its host time. *)
let run_tracing_only spec ~seed ~measure_ms =
  let probe = { gen_ns = 0; gen_calls = 0 } in
  let s = setup spec ~seed ~tracing:true ~measure_ms probe in
  let engine = Core.Cluster.engine s.cluster in
  run_to_mark engine;
  open_window s.cluster;
  let c0 = read_counters s.cluster probe in
  run_to_mark engine;
  let c1 = read_counters s.cluster probe in
  (virtual_digest (close_window s.cluster c0 c1), c1.ns - c0.ns)

(* --- Storage replay, outside the simulation ----------------------------- *)

type replay = {
  requests : int;
  replay_ns : int;
  replay_words : float;
  rows_scanned : int;
}

let run_replay spec ~seed =
  let db = Storage.Database.create () in
  List.iter (fun schema -> ignore (Storage.Database.create_table db schema)) spec.schemas;
  spec.load db;
  let rng = Util.Rng.create (seed lxor 0x5eed_5eed) and gen = spec.gen Fun.id in
  let requests = Array.init spec.replay_requests (fun _ -> gen.Core.Client.next_request rng) in
  let scanned = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = clock_ns () in
  Array.iter
    (fun (req : Core.Transaction.request) ->
      let txn = Storage.Txn.begin_ db in
      List.iter
        (fun stmt ->
          let _, cost = Storage.Query.exec txn stmt in
          scanned := !scanned + cost.Storage.Txn.rows_scanned)
        req.Core.Transaction.statements;
      if not (Storage.Txn.is_read_only txn) then ignore (Storage.Txn.commit_standalone txn))
    requests;
  let replay_ns = clock_ns () - t0 in
  {
    requests = spec.replay_requests;
    replay_ns;
    replay_words = Gc.minor_words () -. w0;
    rows_scanned = !scanned;
  }

(* --- Metrics ------------------------------------------------------------- *)

let metric name unit_ value = { name; unit_; value }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let end_to_end spec u =
  let w = u.w in
  let words = w.c1.minor_words -. w.c0.minor_words in
  (* The six virtual-time metrics, then the four host-side ones;
     [outage_ms] belongs to the workload that crashes its certifier. *)
  [
    metric "tps" "txn/s" w.tps;
    metric "p50_ms" "ms" w.p50;
    metric "p99_ms" "ms" w.p99;
    metric "abort_ratio" "ratio" (abort_ratio w);
    metric "fail_ratio" "ratio" (fail_ratio w);
  ]
  @ (if spec.crash_certifier_at <> None then [ metric "outage_ms" "ms" w.outage_ms ] else [])
  @ [
      metric "host_tps" "txn/s" (float_of_int w.committed /. host_s u);
      metric "alloc_words_per_txn" "words"
        (if w.committed = 0 then 0.0 else words /. float_of_int w.committed);
      metric "peak_heap_mb" "MB" u.peak_heap_mb;
      metric "setup_s" "s" u.setup_s;
    ]

(* Metrics the result line carries with --trace 0: the ones declared in
   BENCHMARK.json, which are never 0 on any workload. [fail_ratio] is
   the line's own [failed]/[attempted]; [outage_ms] exists on one
   workload only; [abort_ratio] rests on a few dozen aborts per run on
   two workloads and swings too far from seed to seed to bound. All
   three stay in the printed report. *)
let declared_end_to_end =
  [ "tps"; "p50_ms"; "p99_ms"; "host_tps"; "alloc_words_per_txn"; "peak_heap_mb"; "setup_s" ]

let per_layer u t r ~tracing_ns =
  let w = u.w in
  let c0 = w.c0 and c1 = w.c1 in
  let n = w.committed in
  let per_txn d = ratio d n and per_ktxn d = 1000.0 *. ratio d n in
  let stage s = List.assoc s w.stages in
  let decisions = c1.cert_commits + c1.cert_aborts - c0.cert_commits - c0.cert_aborts in
  let per_req x = x /. float_of_int r.requests in
  let step_max_ms =
    match Top_k.to_list t.slowest with (ns, _) :: _ -> float_of_int ns /. 1e6 | [] -> 0.0
  in
  [
    metric "sim.events_per_txn" "count" (per_txn (c1.events - c0.events));
    metric "sim.ns_per_event" "ns" (ratio (window_ns u) (c1.events - c0.events));
    metric "sim.slow_step_share" "ratio"
      (slow_share ~fraction:0.001 ~n:t.steps ~total:t.step_ns t.slow);
    metric "sim.step_max_ms" "ms" step_max_ms;
    metric "gc.major_per_ktxn" "count" (per_ktxn (c1.majors - c0.majors));
    metric "net.msgs_per_txn" "count" (per_txn (c1.msgs - c0.msgs));
    metric "net.bytes_per_txn" "bytes" (per_txn (c1.bytes - c0.bytes));
    metric "net.retransmits_per_ktxn" "count" (per_ktxn w.retransmits);
    metric "stage.sync_delay_ms" "ms" w.sync_delay;
    metric "stage.version_ms" "ms" (stage Core.Metrics.Version);
    metric "stage.queries_ms" "ms" (stage Core.Metrics.Queries);
    metric "stage.certify_ms" "ms" (stage Core.Metrics.Certify);
    metric "stage.sync_ms" "ms" (stage Core.Metrics.Sync);
    metric "stage.commit_ms" "ms" (stage Core.Metrics.Commit);
    metric "stage.global_ms" "ms" (stage Core.Metrics.Global);
    metric "self_ms.client" "ms" (t.self_client /. float_of_int (max 1 n));
    metric "self_ms.replica" "ms" (t.self_replica /. float_of_int (max 1 n));
    metric "self_ms.certifier" "ms" (t.self_certifier /. float_of_int (max 1 n));
    metric "replica.cpu_util" "ratio" w.replica_util;
    metric "replica.applies_per_txn" "count" (per_txn (c1.applied - c0.applied));
    metric "cert.queue_wait_ms" "ms"
      (if t.queue_ms_n = 0 then 0.0 else t.queue_ms_sum /. float_of_int t.queue_ms_n);
    metric "cert.cpu_util" "ratio" w.cert_util;
    metric "cert.batch_mean" "count" w.cert_batch;
    metric "cert.commit_ratio" "ratio" (ratio (c1.cert_commits - c0.cert_commits) decisions);
    metric "cert.elections" "count" (float_of_int (c1.elections - c0.elections));
    metric "client.attempts_per_txn" "count" (per_txn (w.committed + w.aborted));
    metric "storage.load_s" "s" u.load_s;
    metric "storage.exec_us_per_req" "us" (per_req (float_of_int r.replay_ns /. 1e3));
    metric "storage.words_per_req" "words" (per_req r.replay_words);
    metric "storage.rows_scanned_per_req" "count" (per_req (float_of_int r.rows_scanned));
    metric "workload.gen_us_per_req" "us"
      (ratio (c1.gen_ns - c0.gen_ns) (c1.gen_calls - c0.gen_calls) /. 1e3);
    metric "check.battery_s" "s" (seconds_of_ns u.gate.battery_ns);
    metric "obs.spans_per_txn" "count" (ratio t.spans n);
    metric "obs.trace_overhead" "ratio" (ratio tracing_ns (window_ns u));
  ]

(* Per-layer times that are 0 on a whole workload by construction are
   printed but kept off the result line: eager mode has no start wait,
   lazy modes have no global stage (their sum, the paper's
   synchronization delay, is on the line), and only failover-open keeps
   a run log to check. *)
let undeclared_per_layer = [ "stage.version_ms"; "stage.global_ms"; "check.battery_s" ]

(* --- Report --------------------------------------------------------------- *)

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (m : metric) -> Printf.printf "  %-28s %16.6g %s\n" m.name m.value m.unit_) metrics

let print_gate g =
  (match g.drained_ms with
  | Some ms -> Printf.printf "  drain: every live replica caught up after %.0f virtual ms\n" ms
  | None -> Printf.printf "  drain: FAILED, a live replica never caught up\n");
  if g.battery <> [] then begin
    Printf.printf
      "  run log: %s; duplicate versions %d; automatic promotions %d; checked in %.3f s\n"
      (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) g.battery))
      g.duplicate_versions g.promotions (seconds_of_ns g.battery_ns)
  end

let print_percentiles w =
  let line p v =
    let beyond = beyond ~n:w.committed ~p in
    if percentile_reportable ~n:w.committed ~p then
      Printf.printf "  p%-3g %10.4f ms   (n=%d, %d beyond)\n" p v w.committed beyond
    else Printf.printf "  p%-3g    missing   (n=%d, only %d beyond)\n" p w.committed beyond
  in
  line 50.0 w.p50;
  line 99.0 w.p99

let print_slowest t =
  Printf.printf "slowest %d engine steps (traced run)\n" (Top_k.length t.slowest);
  Printf.printf "  %4s %10s %12s %9s %8s %6s %6s %6s %6s %6s  %s\n" "rank" "step" "virtual_ms"
    "host_ms" "kwords" "commit" "abort" "decide" "apply" "msgs"
    "spans finished | started at this instant";
  List.iteri
    (fun i (ns, s) ->
      Printf.printf "  %4d %10d %12.3f %9.3f %8.1f %6d %6d %6d %6d %6d  %s | %s\n" (i + 1) s.index
        s.vtime (float_of_int ns /. 1e6) (s.words /. 1e3) s.d_commits s.d_aborts s.d_decisions
        s.d_applied s.d_msgs
        (match summarize s.finished with "" -> "-" | x -> x)
        (match summarize s.started with "" -> "-" | x -> x))
    (Top_k.to_list t.slowest)

(* --- Driver ----------------------------------------------------------------- *)

let run_workload spec ~seed ~seconds ~trace =
  let measure_ms = float_of_int seconds *. spec.virtual_ms_per_s in
  Printf.printf "== %s  seed=%d seconds=%d trace=%d\n" spec.name seed seconds
    (if trace then 1 else 0);
  Printf.printf "   window: %.0f virtual ms warm-up + %.0f virtual ms measured\n" spec.warmup_ms
    measure_ms;
  List.iter (Printf.printf "   %s\n") spec.notes;
  flush stdout;
  let u = run_untraced spec ~seed ~measure_ms in
  let failures = ref (gate_failures spec u.w u.gate) in
  let e2e = end_to_end spec u in
  print_metrics "end-to-end" e2e;
  print_percentiles u.w;
  Printf.printf "  actions finished %d, failed %d; window took %.3f host s\n" (attempted u.w)
    u.w.failed (seconds_of_ns (window_ns u));
  Printf.printf "  host speed: window slices took %s of their host time at nominal speed\n"
    (String.concat " "
       (List.map (fun (ns, s, _) -> Printf.sprintf "%.2f" (s /. seconds_of_ns ns)) u.slices));
  print_gate u.gate;
  let digest = virtual_digest u.w in
  Printf.printf "  digest: virtual %s%s\n%!" digest
    (match u.gate.runlog_digest with Some d -> " run log " ^ d | None -> "");
  let pick names ms = List.filter (fun (m : metric) -> List.mem m.name names) ms in
  let metrics =
    if not trace then pick declared_end_to_end e2e
    else begin
      let events_hint = u.w.c1.events - u.w.c0.events in
      Gc.compact ();
      let t = run_traced spec ~seed ~measure_ms ~events_hint in
      Gc.compact ();
      let tracing_digest, tracing_ns = run_tracing_only spec ~seed ~measure_ms in
      Gc.compact ();
      let r = run_replay spec ~seed in
      let layers = per_layer u t r ~tracing_ns in
      print_metrics "per-layer" layers;
      print_slowest t;
      let tdigest = virtual_digest t.tw in
      let same =
        String.equal digest tdigest
        && String.equal digest tracing_digest
        && t.tgate.runlog_digest = u.gate.runlog_digest
      in
      Printf.printf "  traced runs: digest %s stepped, %s unstepped (%s); %d spans, %d dropped\n"
        tdigest tracing_digest
        (if same then "identical" else "MISMATCH")
        t.spans t.dropped;
      if not same then failures := "a traced run did not reproduce the digest" :: !failures;
      if t.dropped > 0 then failures := "the traced run dropped spans" :: !failures;
      failures := !failures @ gate_failures spec t.tw t.tgate;
      List.filter (fun (m : metric) -> not (List.mem m.name undeclared_per_layer)) layers
    end
  in
  let metrics =
    if percentile_reportable ~n:u.w.committed ~p:99.0 then metrics
    else List.filter (fun (m : metric) -> m.name <> "p99_ms") metrics
  in
  let non_finite = List.filter (fun (m : metric) -> not (Float.is_finite m.value)) metrics in
  List.iter (fun (m : metric) -> failures := (m.name ^ " is not finite") :: !failures) non_finite;
  let metrics = List.filter (fun (m : metric) -> Float.is_finite m.value) metrics in
  let correct = !failures = [] in
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) !failures;
  Printf.printf "  correct: %b\n" correct;
  print_endline (result_line ~correct ~attempted:(attempted u.w) ~failed:u.w.failed metrics);
  correct

(* [--workload all] runs each workload in a process of its own, so that
   process-wide figures such as the peak heap belong to one workload.
   Each child's report passes through; its result line is folded into
   one line whose metric names carry the workload's name. *)
let run_all ~args =
  let child spec =
    let argv = Array.of_list (Sys.executable_name :: "--workload" :: spec.name :: args) in
    let ic = Unix.open_process_args_in Sys.executable_name argv in
    let rec pass last =
      match In_channel.input_line ic with
      | None -> last
      | Some line ->
        Option.iter print_endline last;
        flush stdout;
        pass (Some line)
    in
    let last = pass None in
    let exited_ok = Unix.close_process_in ic = Unix.WEXITED 0 in
    match Option.bind last parse_result_line with
    | Some (correct, attempted, failed, metrics) ->
      let named (m : metric) = { m with name = spec.name ^ "." ^ m.name } in
      (correct && exited_ok, attempted, failed, List.map named metrics)
    | None ->
      Option.iter print_endline last;
      Printf.printf "  FAILED: %s printed no result\n" spec.name;
      (false, 0, 0, [])
  in
  let results = List.map child workloads in
  let correct = List.for_all (fun (c, _, _, _) -> c) results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  print_endline
    (result_line ~correct
       ~attempted:(sum (fun (_, a, _, _) -> a))
       ~failed:(sum (fun (_, _, f, _) -> f))
       (List.concat_map (fun (_, _, _, ms) -> ms) results));
  correct

let usage () =
  Printf.eprintf
    "usage: bench.exe --workload (%s|all) --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map (fun s -> s.name) workloads));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace when seconds > 0 ->
    let correct =
      if name = "all" then
        run_all
          ~args:
            [ "--seed"; string_of_int seed; "--seconds"; string_of_int seconds; "--trace";
              (if trace then "1" else "0") ]
      else
        match List.find_opt (fun s -> s.name = name) workloads with
        | Some spec -> run_workload spec ~seed ~seconds ~trace
        | None -> usage ()
    in
    if not correct then exit 1
  | _ -> usage ()
