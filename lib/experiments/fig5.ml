let clients_per_replica = function
  | Workload.Tpcw.Browsing -> 100
  | Workload.Tpcw.Shopping -> 80
  | Workload.Tpcw.Ordering -> 50

let sweep ~quick ~seed ~scaled mixes =
  let warmup_ms, measure_ms = if quick then (3_000.0, 10_000.0) else (5_000.0, 25_000.0) in
  let replica_counts = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  List.concat_map
    (fun mix ->
      List.concat_map
        (fun replicas ->
          let clients = clients_per_replica mix * if scaled then replicas else 1 in
          List.map
            (fun mode ->
              {
                Runner.mode;
                workload = Tpcw (Workload.Tpcw.default, mix);
                replicas;
                clients;
                warmup_ms;
                measure_ms;
                seed;
                config = Core.Config.tpcw;
                arrival = Closed;
                faults = None;
                drain = false;
              })
            Core.Consistency.all)
        replica_counts)
    mixes

let mix_of (p : Runner.point) =
  match p.workload with
  | Tpcw (_, mix) -> mix
  | Micro _ | Tiered _ | Span _ | Hot_key _ | Tpcc _ | Ycsb _ ->
    invalid_arg "Fig5: not a TPC-W point"

let panel ?y_label ~title ~metric mix pairs =
  let pairs = List.filter (fun (p, _) -> mix_of p = mix) pairs in
  let replica_counts =
    List.sort_uniq compare (List.map (fun ((p : Runner.point), _) -> p.replicas) pairs)
  in
  let value mode n =
    metric (Runner.lookup pairs (fun p -> p.mode = mode && p.replicas = n))
  in
  let header = "replicas" :: List.map Core.Consistency.to_string Core.Consistency.all in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.map (fun mode -> Report.fmt_f (value mode n)) Core.Consistency.all)
      replica_counts
  in
  let chart =
    match y_label with
    | None -> ""
    | Some y_label ->
      let series =
        List.map
          (fun mode ->
            ( Core.Consistency.to_string mode,
              List.map (fun n -> (float_of_int n, value mode n)) replica_counts ))
          Core.Consistency.all
      in
      "\n" ^ Plot.chart ~series ~y_label ~x_label:"replicas" ()
  in
  Report.section title ^ "\n" ^ Report.table ~header rows ^ chart

let panels mixes render pairs =
  let present mix = List.exists (fun (p, _) -> mix_of p = mix) pairs in
  String.concat "\n" (List.concat_map render (List.filter present mixes))

let points ~quick ~seed =
  sweep ~quick ~seed ~scaled:true
    [ Workload.Tpcw.Browsing; Workload.Tpcw.Shopping; Workload.Tpcw.Ordering ]

let render pairs =
  let fig5 mix =
    let panel label metric =
      panel ~y_label:label
        ~title:
          (Printf.sprintf "Figure 5: TPC-W %s — %s (scaled load)"
             (Workload.Tpcw.mix_name mix) label)
        ~metric mix pairs
    in
    [
      panel "throughput (TPS)" (fun s -> s.Runner.tps);
      panel "response time (ms)" (fun s -> s.Runner.response_ms);
    ]
  in
  let fig6 mix =
    [
      panel
        ~title:
          (Printf.sprintf "Figure 6: TPC-W %s — synchronization delay (ms, scaled load)"
             (Workload.Tpcw.mix_name mix))
        ~metric:(fun s -> s.Runner.sync_delay_ms)
        mix pairs;
    ]
  in
  panels [ Workload.Tpcw.Browsing; Workload.Tpcw.Shopping; Workload.Tpcw.Ordering ] fig5 pairs
  ^ panels [ Workload.Tpcw.Shopping; Workload.Tpcw.Ordering ] fig6 pairs
