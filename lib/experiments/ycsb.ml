let mixes = Workload.Ycsb.[ A; B; C; D; E; F ]

let points ~quick:_ ~seed =
  List.concat_map
    (fun mix ->
      List.map
        (fun mode ->
          {
            Runner.mode;
            workload = Ycsb (Workload.Ycsb.default, mix);
            replicas = 4;
            clients = 40;
            warmup_ms = 1_000.0;
            measure_ms = 4_000.0;
            seed;
            config = Core.Config.default;
            arrival = Closed;
            faults = None;
            drain = false;
          })
        Core.Consistency.all)
    mixes

let mix_of (p : Runner.point) =
  match p.workload with
  | Ycsb (_, mix) -> mix
  | Micro _ | Tiered _ | Span _ | Hot_key _ | Tpcw _ | Tpcc _ ->
    invalid_arg "Ycsb: not a YCSB point"

let render pairs =
  let row ((p : Runner.point), (s : Runner.summary)) =
    Printf.sprintf "%-7s %-8s %9.0f %9.2f %8.2f\n"
      (Workload.Ycsb.mix_name (mix_of p))
      (Core.Consistency.to_string p.mode)
      s.tps s.response_ms (100.0 *. s.abort_rate)
  in
  let block mix =
    String.concat "" (List.map row (List.filter (fun (p, _) -> mix_of p = mix) pairs)) ^ "\n"
  in
  "YCSB on 4 replicas, 40 closed-loop clients, 10k records (zipf 0.99)\n\n"
  ^ Printf.sprintf "%-7s %-8s %9s %9s %8s\n" "mix" "mode" "TPS" "resp(ms)" "abort%"
  ^ String.concat ""
      (List.map block (Runner.distinct (List.map (fun (p, _) -> mix_of p) pairs)))
