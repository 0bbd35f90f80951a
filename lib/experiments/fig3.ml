let points ~quick ~seed =
  let update_points =
    if quick then [ 0; 10; 20; 40 ] else [ 0; 5; 10; 15; 20; 25; 30; 35; 40 ]
  in
  List.concat_map
    (fun update_types ->
      List.map
        (fun mode -> Runner.micro_point ~quick ~seed mode ~update_types)
        Core.Consistency.all)
    update_points

let render pairs =
  let update_points = Runner.distinct (List.map (fun (p, _) -> Runner.update_types p) pairs) in
  let summary update_types mode =
    Runner.lookup pairs (fun p -> p.mode = mode && Runner.update_types p = update_types)
  in
  let header =
    "upd types"
    :: List.concat_map
         (fun mode ->
           let name = Core.Consistency.to_string mode in
           [ name ^ " TPS"; name ^ " ms" ])
         Core.Consistency.all
  in
  let rows =
    List.map
      (fun u ->
        string_of_int u
        :: List.concat_map
             (fun mode ->
               let s = summary u mode in
               [ Report.fmt_f s.Runner.tps; Report.fmt_f s.Runner.response_ms ])
             Core.Consistency.all)
      update_points
  in
  let series =
    List.map
      (fun mode ->
        ( Core.Consistency.to_string mode,
          List.map (fun u -> (float_of_int u, (summary u mode).Runner.tps)) update_points ))
      Core.Consistency.all
  in
  Report.section "Figure 3: micro-benchmark throughput vs update ratio (8 replicas)"
  ^ "\n" ^ Report.table ~header rows ^ "\n"
  ^ Plot.chart ~series ~y_label:"TPS" ~x_label:"update transaction types (of 40)" ()
