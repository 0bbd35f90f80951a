let tables = Workload.Microbench.default.Workload.Microbench.tables

let points ~quick ~seed =
  List.concat_map
    (fun update_pct ->
      List.map
        (fun mode ->
          Runner.micro_point ~quick ~seed mode ~update_types:(update_pct * tables / 100))
        Core.Consistency.all)
    [ 25; 100 ]

let breakdown (s : Runner.summary) =
  let stage_ms = Array.copy s.stage_ms in
  let global = Core.Metrics.stage_index Core.Metrics.Global in
  stage_ms.(global) <- s.stage_update_ms.(global);
  stage_ms

let render pairs =
  let header =
    "config" :: (List.map Core.Metrics.stage_name Core.Metrics.stages @ [ "total" ])
  in
  let panel update_types =
    let rows =
      List.map
        (fun mode ->
          let stage_ms =
            breakdown
              (Runner.lookup pairs (fun p ->
                   p.mode = mode && Runner.update_types p = update_types))
          in
          Core.Consistency.to_string mode
          :: (Array.to_list (Array.map Report.fmt_f stage_ms)
             @ [ Report.fmt_f (Array.fold_left ( +. ) 0.0 stage_ms) ]))
        Core.Consistency.all
    in
    Report.section
      (Printf.sprintf "Figure 4: latency breakdown, %d%% update mix (ms)"
         (update_types * 100 / tables))
    ^ "\n" ^ Report.table ~header rows
  in
  String.concat "\n"
    (List.map panel (Runner.distinct (List.map (fun (p, _) -> Runner.update_types p) pairs)))
