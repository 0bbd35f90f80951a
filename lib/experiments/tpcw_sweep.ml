type point = {
  mix : Workload.Tpcw.mix;
  mode : Core.Consistency.mode;
  replicas : int;
  summary : Runner.summary;
}

let clients_per_replica = function
  | Workload.Tpcw.Browsing -> 100
  | Workload.Tpcw.Shopping -> 80
  | Workload.Tpcw.Ordering -> 50

let all_mixes = [ Workload.Tpcw.Browsing; Workload.Tpcw.Shopping; Workload.Tpcw.Ordering ]

let sweep ~scaled_load ~config ~params ~mixes ~replica_counts ~warmup_ms ~measure_ms =
  List.concat_map
    (fun mix ->
      List.concat_map
        (fun replicas ->
          let clients =
            if scaled_load then clients_per_replica mix * replicas
            else clients_per_replica mix
          in
          List.map
            (fun mode ->
              let config = { config with Core.Config.replicas } in
              let summary =
                Runner.run_tpcw ~config ~mode ~params ~mix ~clients ~warmup_ms
                  ~measure_ms ()
              in
              { mix; mode; replicas; summary })
            Core.Consistency.all)
        replica_counts)
    mixes

let scaled ?(config = Core.Config.tpcw) ?(params = Workload.Tpcw.default)
    ?(mixes = all_mixes) ?(replica_counts = [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    ?(warmup_ms = 4_000.0) ?(measure_ms = 16_000.0) () =
  sweep ~scaled_load:true ~config ~params ~mixes ~replica_counts ~warmup_ms ~measure_ms

let fixed ?(config = Core.Config.tpcw) ?(params = Workload.Tpcw.default)
    ?(mixes = [ Workload.Tpcw.Shopping; Workload.Tpcw.Ordering ])
    ?(replica_counts = [ 1; 2; 3; 4; 5; 6; 7; 8 ]) ?(warmup_ms = 4_000.0)
    ?(measure_ms = 16_000.0) () =
  sweep ~scaled_load:false ~config ~params ~mixes ~replica_counts ~warmup_ms ~measure_ms
