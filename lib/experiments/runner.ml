(* [map_jobs ~jobs f items] = [List.map f items], computed by [jobs]
   domains. Each simulation is single-threaded and self-contained (its
   engine, RNG chain, and cluster state are all built inside [f]), so
   runs parallelize without sharing anything but the work queue; results
   land in their item's slot, preserving order. [jobs <= 1] takes the
   exact serial path — same closure, same order — so the parallel driver
   can never perturb a serial run's behavior. *)
let map_jobs ?(jobs = 1) f items =
  if jobs <= 1 then List.map f items
  else begin
    let arr = Array.of_list items in
    let n = Array.length arr in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (f arr.(i));
          loop ()
        end
      in
      loop ()
    in
    let spawned = min (jobs - 1) (max 0 (n - 1)) in
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join domains)
      (fun () -> worker ());
    Array.to_list
      (Array.map (function Some x -> x | None -> assert false) out)
  end

type workload =
  | Micro of Workload.Microbench.params
  | Span of Workload.Microbench.params * int
  | Hot_key of Workload.Microbench.params * int
  | Tpcw of Workload.Tpcw.params * Workload.Tpcw.mix
  | Tpcc of Workload.Tpcc.params * float
  | Ycsb of Workload.Ycsb.params * Workload.Ycsb.mix

type point = {
  mode : Core.Consistency.mode;
  workload : workload;
  replicas : int;
  clients : int;
  warmup_ms : float;
  measure_ms : float;
  seed : int;
  config : Core.Config.t;
}

let micro_point ~quick ~seed ?(config = Core.Config.default) ?(clients = 80) mode
    ~update_types =
  let rows = if quick then 2_000 else Workload.Microbench.default.rows in
  let warmup_ms, measure_ms = if quick then (1_000.0, 4_000.0) else (2_000.0, 8_000.0) in
  {
    mode;
    workload = Micro { Workload.Microbench.default with rows; update_types };
    replicas = config.Core.Config.replicas;
    clients;
    warmup_ms;
    measure_ms;
    seed;
    config;
  }

let update_types (p : point) =
  match p.workload with
  | Micro params | Span (params, _) | Hot_key (params, _) ->
    params.Workload.Microbench.update_types
  | Tpcw _ | Tpcc _ | Ycsb _ -> invalid_arg "Runner.update_types: not a micro-benchmark"

type summary = {
  mode : Core.Consistency.mode;
  replicas : int;
  clients : int;
  tps : float;
  response_ms : float;
  p99_ms : float;
  stage_ms : float array;
  stage_update_ms : float array;
  sync_delay_ms : float;
  abort_rate : float;
  committed : int;
}

let summarize cluster ~clients =
  let metrics = Core.Cluster.metrics cluster in
  let per_stage mean = Array.of_list (List.map (mean metrics) Core.Metrics.stages) in
  {
    mode = Core.Cluster.mode cluster;
    replicas = (Core.Cluster.config cluster).Core.Config.replicas;
    clients;
    tps = Core.Metrics.throughput_tps metrics;
    response_ms = Core.Metrics.mean_response_ms metrics;
    p99_ms = Core.Metrics.percentile_response_ms metrics 99.0;
    stage_ms = per_stage Core.Metrics.mean_stage_ms;
    stage_update_ms = per_stage Core.Metrics.mean_stage_update_ms;
    sync_delay_ms = Core.Metrics.sync_delay_ms metrics;
    abort_rate = Core.Metrics.abort_rate metrics;
    committed = Core.Metrics.committed metrics;
  }

let run_point (p : point) =
  let config = { p.config with Core.Config.replicas = p.replicas; seed = p.seed } in
  let create schemas load = Core.Cluster.create ~config ~mode:p.mode ~schemas ~load () in
  (* Every workload but TPC-W splits one RNG stream per client off the
     cluster RNG; TPC-W clients share it. *)
  let spawn_many schemas load workload =
    let cluster = create schemas load in
    Core.Client.spawn_many cluster ~n:p.clients ~first_sid:0 workload;
    cluster
  in
  let micro params workload =
    spawn_many (Workload.Microbench.schemas params) (Workload.Microbench.load params) workload
  in
  let cluster =
    match p.workload with
    | Micro params -> micro params (Workload.Microbench.workload params)
    | Span (params, span) -> micro params (Workload.Microbench.span_workload params ~span)
    | Hot_key (params, hot_rows) ->
      micro params (Workload.Microbench.hot_workload params ~hot_rows)
    | Tpcw (params, mix) ->
      let cluster = create Workload.Tpcw.schemas (Workload.Tpcw.load params) in
      for sid = 0 to p.clients - 1 do
        Core.Client.spawn cluster ~sid ~rng:(Core.Cluster.rng cluster)
          (Workload.Tpcw.workload params mix ~sid)
      done;
      cluster
    | Tpcc (params, think_mean_ms) ->
      spawn_many Workload.Tpcc.schemas (Workload.Tpcc.load params)
        {
          (Workload.Tpcc.workload params) with
          Core.Client.think_ms = Core.Client.exp_think ~mean_ms:think_mean_ms;
        }
    | Ycsb (params, mix) ->
      spawn_many (Workload.Ycsb.schemas params) (Workload.Ycsb.load params)
        (Workload.Ycsb.workload params mix)
  in
  Core.Cluster.run_for cluster ~warmup_ms:p.warmup_ms ~measure_ms:p.measure_ms;
  summarize cluster ~clients:p.clients

let run ?jobs points = map_jobs ?jobs run_point points

type artifact = {
  points : point list;
  render : (point * summary) list -> string;
}

(* Pair each point with its summary; return the summaries left over. *)
let rec zip_prefix points summaries =
  match (points, summaries) with
  | [], rest -> ([], rest)
  | p :: points, s :: summaries ->
    let pairs, rest = zip_prefix points summaries in
    ((p, s) :: pairs, rest)
  | _ :: _, [] -> invalid_arg "Runner.zip_prefix: fewer summaries than points"

let render_all ?jobs artifacts =
  let summaries = run ?jobs (List.concat_map (fun a -> a.points) artifacts) in
  snd
    (List.fold_left_map
       (fun summaries a ->
         let pairs, rest = zip_prefix a.points summaries in
         (rest, a.render pairs))
       summaries artifacts)

let lookup pairs pred = snd (List.find (fun (p, _) -> pred p) pairs)

let distinct xs =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

type aggregate = {
  runs : int;
  mean : summary;
  tps_stddev : float;
  response_stddev_ms : float;
  tps_rel_dev : float;
}

let replicate ~runs (p : point) =
  assert (runs >= 1);
  let summaries = run (List.init runs (fun i -> { p with seed = p.seed + i })) in
  let n = float_of_int runs in
  let mean_of get = List.fold_left (fun acc s -> acc +. get s) 0.0 summaries /. n in
  let stddev_of get =
    if runs < 2 then 0.0
    else begin
      let m = mean_of get in
      sqrt
        (List.fold_left (fun acc s -> acc +. ((get s -. m) ** 2.0)) 0.0 summaries
        /. float_of_int (runs - 1))
    end
  in
  let first = List.hd summaries in
  let mean_stage i = mean_of (fun s -> s.stage_ms.(i)) in
  let mean_stage_u i = mean_of (fun s -> s.stage_update_ms.(i)) in
  let mean =
    {
      first with
      tps = mean_of (fun s -> s.tps);
      response_ms = mean_of (fun s -> s.response_ms);
      p99_ms = mean_of (fun s -> s.p99_ms);
      stage_ms = Array.init Core.Metrics.stage_count mean_stage;
      stage_update_ms = Array.init Core.Metrics.stage_count mean_stage_u;
      sync_delay_ms = mean_of (fun s -> s.sync_delay_ms);
      abort_rate = mean_of (fun s -> s.abort_rate);
      committed =
        int_of_float (mean_of (fun s -> float_of_int s.committed));
    }
  in
  let tps_stddev = stddev_of (fun s -> s.tps) in
  {
    runs;
    mean;
    tps_stddev;
    response_stddev_ms = stddev_of (fun s -> s.response_ms);
    tps_rel_dev = (if mean.tps > 0.0 then tps_stddev /. mean.tps else 0.0);
  }
