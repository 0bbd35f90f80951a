type t = Apply | Span | Early_cert | Routing

let all = [ Apply; Span; Early_cert; Routing ]

let reexec c =
  {
    c with
    Core.Config.ws_apply_base_ms = c.Core.Config.stmt_base_ms +. c.Core.Config.commit_ms;
    ws_apply_row_ms = c.Core.Config.row_write_ms;
  }

let params = { Workload.Microbench.default with rows = 2_000 }

let points ~quick ~seed t =
  let point ?(mode = Core.Consistency.Coarse) ?(config = Core.Config.default) workload =
    {
      Runner.mode;
      workload;
      replicas = config.Core.Config.replicas;
      clients = 80;
      warmup_ms = 1_500.0;
      measure_ms = (if quick then 3_000.0 else 6_000.0);
      seed;
      config;
      arrival = Closed;
      faults = None;
      drain = false;
    }
  in
  let micro update_types = Runner.Micro { params with update_types } in
  match t with
  | Apply ->
    List.map
      (fun config -> point ~config (micro 20))
      [ Core.Config.default; reexec Core.Config.default ]
  | Span ->
    List.concat_map
      (fun span ->
        List.map
          (fun mode -> point ~mode (Runner.Span ({ params with update_types = 10 }, span)))
          [ Core.Consistency.Fine; Core.Consistency.Coarse ])
      [ 1; 2; 4; 8; 16 ]
  | Early_cert ->
    List.map
      (fun early_certification ->
        point
          ~config:{ Core.Config.default with early_certification }
          (Runner.Hot_key ({ params with update_types = 40 }, 40)))
      [ true; false ]
  | Routing ->
    List.map
      (fun routing -> point ~config:{ Core.Config.default with routing } (micro 10))
      [
        Core.Config.Least_active; Core.Config.Round_robin; Core.Config.Random_replica;
        Core.Config.Session_affinity;
      ]

let title = function
  | Apply -> "Ablation: writeset shipping vs re-execution"
  | Span -> "Ablation: table-set granularity"
  | Early_cert -> "Ablation: early certification"
  | Routing -> "Ablation: load-balancer routing"

let label t (p : Runner.point) =
  match (t, p.workload) with
  | Apply, _ ->
    if p.config.ws_apply_base_ms = Core.Config.default.ws_apply_base_ms then
      "writeset shipping (paper)"
    else "re-execute at replicas"
  | Span, Runner.Span (_, span) ->
    Printf.sprintf "span=%d %s" span (Core.Consistency.to_string p.mode)
  | Early_cert, _ ->
    if p.config.early_certification then "early certification on"
    else "early certification off"
  | Routing, _ -> (
    match p.config.routing with
    | Core.Config.Least_active -> "least-active (paper)"
    | Round_robin -> "round-robin"
    | Random_replica -> "random"
    | Session_affinity -> "session-affinity")
  | Span, _ -> invalid_arg "Ablation.label: not a span point"

let cells t (s : Runner.summary) =
  let stage st = s.stage_ms.(Core.Metrics.stage_index st) in
  [ ("TPS", s.tps); ("resp_ms", s.response_ms) ]
  @
  match t with
  | Apply ->
    [ ("version_ms", stage Core.Metrics.Version); ("sync_ms", stage Core.Metrics.Sync) ]
  | Span -> [ ("version_ms", stage Core.Metrics.Version) ]
  | Early_cert ->
    [ ("abort_pct", 100.0 *. s.abort_rate); ("certify_ms", stage Core.Metrics.Certify) ]
  | Routing -> [ ("p99_ms", s.p99_ms) ]

let render t pairs =
  match pairs with
  | [] -> Report.section (title t) ^ "\n(no data)\n"
  | (_, first) :: _ ->
    let header = "variant" :: List.map fst (cells t first) in
    let body =
      List.map
        (fun (p, s) -> label t p :: List.map (fun (_, v) -> Report.fmt_f v) (cells t s))
        pairs
    in
    Report.section (title t) ^ "\n" ^ Report.table ~header body
