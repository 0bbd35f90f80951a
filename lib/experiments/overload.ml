(* Open-loop offered-rate sweep (docs/PROTOCOL.md, "Overload &
   admission control"): drive the cluster with a rate-paced arrival
   process at each offered rate and report goodput, shedding, latency
   and queue depth — the classic goodput-vs-offered-load curve that
   shows where an unprotected system collapses and a protected one
   plateaus. *)

let points ~config ?(params = Workload.Microbench.default) ?(clients = 16) ~mode ~rates
    ~warmup_ms ~measure_ms () =
  List.map
    (fun offered_tps ->
      {
        Runner.mode;
        workload = Runner.Micro params;
        replicas = config.Core.Config.replicas;
        clients;
        warmup_ms;
        measure_ms;
        seed = config.Core.Config.seed;
        config;
        arrival = Runner.Open offered_tps;
        faults = None;
        drain = false;
      })
    rates

let offered_tps (p : Runner.point) =
  match p.arrival with
  | Runner.Open rate -> rate
  | Runner.Closed -> invalid_arg "Overload.offered_tps: closed-loop point"

let pp_point ppf (p, (s : Runner.summary)) =
  Format.fprintf ppf
    "offered %8.0f tps  goodput %8.1f tps  p50 %7.2fms  p99 %7.2fms  committed=%-6d \
     aborted=%-5d shed=%-5d expired=%-4d budget_out=%-4d max_queue=%d"
    (offered_tps p) s.tps s.p50_ms s.p99_ms s.committed s.aborted
    (Runner.total s "txn.shed")
    (Runner.total s "txn.deadline_expired")
    (Runner.total s "txn.retry_budget_exhausted")
    s.max_queue_depth

let point_json (p, (s : Runner.summary)) =
  let int n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      ("offered_tps", Obs.Json.Num (offered_tps p));
      ("goodput_tps", Obs.Json.Num s.tps);
      ("committed", int s.committed);
      ("aborted", int s.aborted);
      ("shed", int (Runner.total s "txn.shed"));
      ("deadline_expired", int (Runner.total s "txn.deadline_expired"));
      ("retry_budget_exhausted", int (Runner.total s "txn.retry_budget_exhausted"));
      ("max_queue_depth", int s.max_queue_depth);
      ("p50_ms", Obs.Json.Num s.p50_ms);
      ("p99_ms", Obs.Json.Num s.p99_ms);
      ("abort_rate", Obs.Json.Num s.abort_rate);
    ]

let sweep_json ~mode pairs =
  Obs.Json.Obj
    [
      ("version", Obs.Json.Num 1.0);
      ("kind", Obs.Json.Str "overload_sweep");
      ("mode", Obs.Json.Str (Core.Consistency.to_string mode));
      ("points", Obs.Json.Arr (List.map point_json pairs));
    ]
