(* 5 terminals per warehouse: optimistic certification turns the spec's
   hot rows (w_ytd, d_next_o_id) into write-write aborts, so contention
   is kept at the moderate end; the abort column shows what remains. *)
let params = { Workload.Tpcc.default with Workload.Tpcc.warehouses = 8 }

let points ~quick:_ ~seed =
  List.map
    (fun mode ->
      {
        Runner.mode;
        workload = Tpcc (params, 100.0);
        replicas = 4;
        clients = 40;
        warmup_ms = 1_000.0;
        measure_ms = 6_000.0;
        seed;
        config = Core.Config.default;
        arrival = Closed;
        faults = None;
        drain = false;
      })
    Core.Consistency.all

let render pairs =
  let row ((p : Runner.point), (s : Runner.summary)) =
    Printf.sprintf "%-8s %9.0f %9.2f %8.2f %9.2f\n"
      (Core.Consistency.to_string p.mode)
      s.tps s.response_ms (100.0 *. s.abort_rate) s.sync_delay_ms
  in
  Printf.sprintf "TPC-C on 4 replicas, 40 paced terminals, %d warehouses x %d districts\n\n"
    params.warehouses params.districts_per_warehouse
  ^ Printf.sprintf "%-8s %9s %9s %8s %9s\n" "mode" "TPS" "resp(ms)" "abort%" "sync(ms)"
  ^ String.concat "" (List.map row pairs)
  ^ "\n"
  ^ Printf.sprintf "Static SI analysis: %s\n"
      (if Check.Si_analysis.serializable_under_si Workload.Tpcc.profiles then
         "no dangerous structures — TPC-C runs serializably under GSI (as the paper notes)"
       else "dangerous structures found")
