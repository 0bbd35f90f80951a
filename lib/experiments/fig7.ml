let mixes = [ Workload.Tpcw.Shopping; Workload.Tpcw.Ordering ]

let points ~quick ~seed = Fig5.sweep ~quick ~seed ~scaled:false mixes

let render pairs =
  Fig5.panels mixes
    (fun mix ->
      [
        Fig5.panel
          ~title:
            (Printf.sprintf "Figure 7: TPC-W %s — response time (ms, fixed load)"
               (Workload.Tpcw.mix_name mix))
          ~metric:(fun s -> s.Runner.response_ms)
          mix pairs;
      ])
    pairs
