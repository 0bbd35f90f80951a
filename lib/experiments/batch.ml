let modes =
  [ Core.Consistency.Coarse; Core.Consistency.Fine; Core.Consistency.Session;
    Core.Consistency.Eager ]

let points ~quick ~seed ?(config = Core.Config.default) ?(batched = Core.Config.batched)
    ?(clients = 160) () =
  let update_points = if quick then [ 0; 10; 20 ] else [ 0; 5; 10; 15; 20 ] in
  List.concat_map
    (fun update_types ->
      List.concat_map
        (fun mode ->
          List.map
            (fun config -> Runner.micro_point ~quick ~seed ~config ~clients mode ~update_types)
            [ config; batched config ])
        modes)
    update_points

let speedup_pct (baseline : Runner.summary) (batched : Runner.summary) =
  if baseline.tps <= 0.0 then 0.0 else ((batched.tps /. baseline.tps) -. 1.0) *. 100.0

let render pairs =
  let modes = Runner.distinct (List.map (fun ((p : Runner.point), _) -> p.mode) pairs) in
  let update_points = Runner.distinct (List.map (fun (p, _) -> Runner.update_types p) pairs) in
  let arms update_types mode =
    match
      List.filter
        (fun ((p : Runner.point), _) -> p.mode = mode && Runner.update_types p = update_types)
        pairs
    with
    | [ (_, baseline); (_, batched) ] -> (baseline, batched)
    | _ -> invalid_arg "Batch.render: expected a baseline and a batched run per cell"
  in
  let header =
    "upd types"
    :: List.concat_map
         (fun mode -> [ Core.Consistency.to_string mode ^ " TPS"; "+batch TPS"; "gain %" ])
         modes
  in
  let rows =
    List.map
      (fun u ->
        string_of_int u
        :: List.concat_map
             (fun mode ->
               let baseline, batched = arms u mode in
               [
                 Report.fmt_f baseline.Runner.tps;
                 Report.fmt_f batched.Runner.tps;
                 Printf.sprintf "%+.1f" (speedup_pct baseline batched);
               ])
             modes)
      update_points
  in
  let series =
    List.map
      (fun mode ->
        ( Core.Consistency.to_string mode,
          List.map
            (fun u ->
              let baseline, batched = arms u mode in
              (float_of_int u, speedup_pct baseline batched))
            update_points ))
      modes
  in
  Report.section
    "Batching sweep: group certification + parallel refresh apply vs the unbatched \
     pipeline (8 replicas)"
  ^ "\n" ^ Report.table ~header rows ^ "\n"
  ^ Plot.chart ~series ~y_label:"throughput gain %"
      ~x_label:"update transaction types (of 40)" ()
