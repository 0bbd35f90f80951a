let fmt_f x =
  if Float.abs x >= 100.0 then Printf.sprintf "%.0f" x
  else if Float.abs x >= 10.0 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.2f" x

let table ~header rows =
  let all = header :: rows in
  let columns = List.fold_left (fun acc row -> max acc (List.length row)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init columns width in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun c w ->
           let cell = Option.value (List.nth_opt row c) ~default:"" in
           (* Right-align numbers, left-align the first column. *)
           if c = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "%*s" w cell)
         widths)
  in
  let rule =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" ((render_row header :: rule :: List.map render_row rows) @ [ "" ])

let section title =
  let bar = String.make (String.length title + 8) '=' in
  Printf.sprintf "\n%s\n=== %s ===\n%s" bar title bar

(* ASCII sparkline: one level character per value, scaled to the series
   max (a flat series renders at the lowest level). *)
let spark_levels = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
    let top = List.fold_left Float.max 0.0 values in
    let levels = Array.length spark_levels in
    let glyph v =
      if top <= 0.0 || v <= 0.0 then spark_levels.(0)
      else
        let i = int_of_float (v /. top *. float_of_int (levels - 1)) in
        spark_levels.(Stdlib.max 1 (Stdlib.min (levels - 1) i))
    in
    String.init (List.length values) (fun i -> glyph (List.nth values i))

(* --- the run-health report -----------------------------------------

   Rendered from a closed Obs.Timeseries: one row per window with the
   headline throughput / latency / consistency columns, sparklines for
   the load-bearing series, and the whole-run latency distribution from
   the merged histograms. *)

let health ?(title = "run health") (ts : Obs.Timeseries.t) =
  let windows = Obs.Timeseries.windows ts in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (section title);
  Buffer.add_char buf '\n';
  if windows = [] then begin
    Buffer.add_string buf "(no windows recorded)\n";
    Buffer.contents buf
  end
  else begin
    let count w name =
      Option.value (List.assoc_opt name w.Obs.Timeseries.counters) ~default:0
    in
    let gauge w name =
      Option.value (Obs.Timeseries.gauge_value w name) ~default:0.0
    in
    (* Network stop-and-wait re-sends plus the certifier's refresh
       repair: one retransmission column. *)
    let retransmits w = count w "net.retransmits" + count w "certifier.retransmits" in
    let dist_p w name pick =
      match Obs.Timeseries.summary_of w name with
      | None -> 0.0
      | Some s -> pick s
    in
    let rows =
      List.map
        (fun w ->
          let commits = count w "txn.commit" + count w "txn.commit_ro" in
          [
            Printf.sprintf "%.0f-%.0f" w.Obs.Timeseries.start_ms
              w.Obs.Timeseries.end_ms;
            string_of_int commits;
            fmt_f (Obs.Timeseries.rate_per_sec w "txn.commit"
                  +. Obs.Timeseries.rate_per_sec w "txn.commit_ro");
            string_of_int (count w "txn.abort");
            fmt_f (dist_p w "response" (fun s -> s.Obs.Timeseries.p50));
            fmt_f (dist_p w "response" (fun s -> s.Obs.Timeseries.p95));
            fmt_f (dist_p w "response" (fun s -> s.Obs.Timeseries.p99));
            fmt_f (Obs.Timeseries.rate_per_sec w "certifier.decisions");
            string_of_int (retransmits w);
            fmt_f (gauge w "replicas.lag.max");
            fmt_f (gauge w "certifier.log_size");
            fmt_f (gauge w "certifier.log_base");
            fmt_f (gauge w "lb.session_floors");
            fmt_f (gauge w "certifier.epoch");
          ])
        windows
    in
    Buffer.add_string buf
      (table
         ~header:
           [
             "window(ms)"; "commits"; "tps"; "aborts"; "p50"; "p95"; "p99";
             "cert/s"; "retx"; "lag.max"; "log"; "log.base"; "floors"; "epoch";
           ]
         rows);
    let spark name read =
      let values = List.map read windows in
      if List.exists (fun v -> v > 0.0) values then
        Buffer.add_string buf
          (Printf.sprintf "%-12s |%s| peak %s\n" name (sparkline values)
             (fmt_f (List.fold_left Float.max 0.0 values)))
    in
    Buffer.add_char buf '\n';
    spark "tps" (fun w ->
        Obs.Timeseries.rate_per_sec w "txn.commit"
        +. Obs.Timeseries.rate_per_sec w "txn.commit_ro");
    spark "p99" (fun w -> dist_p w "response" (fun s -> s.Obs.Timeseries.p99));
    spark "lag.max" (fun w -> gauge w "replicas.lag.max");
    spark "aborts" (fun w -> float_of_int (count w "txn.abort"));
    spark "retransmits" (fun w -> float_of_int (retransmits w));
    spark "faults" (fun w ->
        float_of_int
          (count w "fault.drops" + count w "fault.duplicates"
         + count w "fault.delays"));
    (match Obs.Timeseries.merged ts "response" with
    | Some h when not (Util.Histogram.Log.is_empty h) ->
      Buffer.add_string buf
        (Printf.sprintf
           "\nwhole-run response: n=%d p50=%s p95=%s p99=%s max=%s (ms)\n"
           (Util.Histogram.Log.count h)
           (fmt_f (Util.Histogram.Log.percentile h 50.0))
           (fmt_f (Util.Histogram.Log.percentile h 95.0))
           (fmt_f (Util.Histogram.Log.percentile h 99.0))
           (fmt_f (Util.Histogram.Log.max_value h)))
    | Some _ | None -> ());
    Buffer.contents buf
  end
