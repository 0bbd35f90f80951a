(* Chrome trace-event export: load the file in chrome://tracing or
   https://ui.perfetto.dev. Spans become complete ("X") events, time
   series windows become counter ("C") events, and metadata events name one
   process per component with one thread per replica. *)

let telemetry_pid = 5

let us ms = ms *. 1000.0

let span_event (s : Span.t) =
  let args =
    ("trace", Json.Num (float_of_int s.Span.trace_id))
    :: (match s.Span.parent with
       | None -> []
       | Some p -> [ ("parent_span", Json.Num (float_of_int p)) ])
    @ List.map (fun (k, v) -> (k, Json.Str v)) s.Span.args
  in
  Json.Obj
    [
      ("name", Json.Str s.Span.name);
      ("cat", Json.Str (Span.component_name s.Span.component));
      ("ph", Json.Str "X");
      ("ts", Json.Num (us s.Span.start_ms));
      ("dur", Json.Num (us (Span.duration_ms s)));
      ("pid", Json.Num (float_of_int (Span.pid s.Span.component)));
      ("tid", Json.Num (float_of_int (Span.tid s.Span.component)));
      ("args", Json.Obj args);
    ]

let metadata_events spans =
  let processes = Hashtbl.create 8 and threads = Hashtbl.create 8 in
  List.iter
    (fun (s : Span.t) ->
      let c = s.Span.component in
      Hashtbl.replace processes (Span.pid c) (Span.component_name c);
      Hashtbl.replace threads (Span.pid c, Span.tid c) (Span.thread_name c))
    spans;
  let meta name pid ?tid label =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str "M");
         ("pid", Json.Num (float_of_int pid));
       ]
      @ (match tid with None -> [] | Some t -> [ ("tid", Json.Num (float_of_int t)) ])
      @ [ ("args", Json.Obj [ ("name", Json.Str label) ]) ])
  in
  let procs =
    Hashtbl.fold (fun pid label acc -> (pid, label) :: acc) processes []
    |> List.sort compare
    |> List.map (fun (pid, label) -> meta "process_name" pid label)
  in
  let thrs =
    Hashtbl.fold (fun key label acc -> (key, label) :: acc) threads []
    |> List.sort compare
    |> List.map (fun ((pid, tid), label) -> meta "thread_name" pid ~tid label)
  in
  procs @ thrs

(* Each closed window becomes one "C" event per channel, stamped at the
   window's end: counters as windowed rates (per second of virtual
   time), gauges as read, distributions as their p99. *)
let timeseries_counter_events (ts : Timeseries.t) =
  List.concat_map
    (fun (w : Timeseries.window) ->
      let event name value =
        Json.Obj
          [
            ("name", Json.Str name);
            ("ph", Json.Str "C");
            ("ts", Json.Num (us w.Timeseries.end_ms));
            ("pid", Json.Num (float_of_int telemetry_pid));
            ("args", Json.Obj [ ("value", Json.Num value) ]);
          ]
      in
      List.map
        (fun (name, _) ->
          event (name ^ "/s") (Timeseries.rate_per_sec w name))
        w.Timeseries.counters
      @ List.map (fun (name, v) -> event name v) w.Timeseries.gauges
      @ List.map
          (fun (name, (s : Timeseries.summary)) ->
            event (name ^ ".p99") s.Timeseries.p99)
          w.Timeseries.dists)
    (Timeseries.windows ts)

let telemetry_process_name =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Num (float_of_int telemetry_pid));
      ("args", Json.Obj [ ("name", Json.Str "telemetry") ]);
    ]

let chrome_json ?timeseries trace =
  let spans = Trace.spans trace in
  let counters =
    match Option.map timeseries_counter_events timeseries with
    | None | Some [] -> []
    | Some events -> telemetry_process_name :: events
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (metadata_events spans @ List.map span_event spans @ counters));
      ("displayTimeUnit", Json.Str "ms");
    ]

let chrome_trace ?timeseries trace = Json.to_string (chrome_json ?timeseries trace)

let write_chrome_trace ?timeseries trace ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ?timeseries trace))

let timeseries_json (ts : Timeseries.t) =
  let window (w : Timeseries.window) =
    Json.Obj
      [
        ("seq", Json.Num (float_of_int w.Timeseries.seq));
        ("start_ms", Json.Num w.Timeseries.start_ms);
        ("end_ms", Json.Num w.Timeseries.end_ms);
        ( "counters",
          Json.Obj
            (List.map
               (fun (name, n) -> (name, Json.Num (float_of_int n)))
               w.Timeseries.counters) );
        ( "gauges",
          Json.Obj (List.map (fun (name, v) -> (name, Json.Num v)) w.Timeseries.gauges)
        );
        ( "dists",
          Json.Obj
            (List.map
               (fun (name, (s : Timeseries.summary)) ->
                 ( name,
                   Json.Obj
                     [
                       ("count", Json.Num (float_of_int s.Timeseries.count));
                       ("p50", Json.Num s.Timeseries.p50);
                       ("p95", Json.Num s.Timeseries.p95);
                       ("p99", Json.Num s.Timeseries.p99);
                       ("max", Json.Num s.Timeseries.max);
                     ] ))
               w.Timeseries.dists) );
      ]
  in
  Json.Obj
    [
      ("window_ms", Json.Num (Timeseries.window_ms ts));
      ("windows", Json.Arr (List.map window (Timeseries.windows ts)));
    ]

let write_timeseries ts ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (timeseries_json ts)))

let pp_text ppf trace =
  let spans = Trace.spans trace in
  Format.fprintf ppf "@[<v>%d spans (%d dropped)@," (List.length spans)
    (Trace.dropped trace);
  List.iter (fun s -> Format.fprintf ppf "%a@," Span.pp s) spans;
  Format.fprintf ppf "@]"
