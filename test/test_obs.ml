(* Tests for the observability subsystem: span buffer, registry,
   windowed time series, JSON codec, and the Chrome trace-event exporter
   fed by a real traced cluster run. *)

let mk_trace () =
  let engine = Sim.Engine.create () in
  (engine, Obs.Trace.create engine)

(* --- Trace ring buffer --- *)

let test_trace_spans_in_finish_order () =
  let engine, tr = mk_trace () in
  Sim.Process.spawn engine (fun () ->
      let id = Obs.Trace.next_trace_id tr in
      let root =
        Obs.Trace.start tr ~trace_id:id ~component:(Obs.Span.Client 0) ~name:"root" ()
      in
      Sim.Process.sleep engine 2.0;
      let child =
        Obs.Trace.start tr ~trace_id:id ~parent:root ~component:(Obs.Span.Replica 1)
          ~name:"child" ()
      in
      Sim.Process.sleep engine 3.0;
      Obs.Trace.finish tr child;
      Obs.Trace.finish tr root);
  Sim.Engine.run engine;
  match Obs.Trace.spans tr with
  | [ child; root ] ->
    Alcotest.(check string) "inner span finishes first" "child" child.Obs.Span.name;
    Alcotest.(check (option int)) "parent link" (Some root.Obs.Span.id)
      child.Obs.Span.parent;
    Alcotest.(check (float 1e-9)) "child start" 2.0 child.Obs.Span.start_ms;
    Alcotest.(check (float 1e-9)) "child duration" 3.0 (Obs.Span.duration_ms child);
    Alcotest.(check (float 1e-9)) "root spans the whole txn" 5.0
      (Obs.Span.duration_ms root)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_trace_ring_overwrites_oldest () =
  let engine = Sim.Engine.create () in
  let tr = Obs.Trace.create ~capacity:4 engine in
  for i = 0 to 9 do
    let s =
      Obs.Trace.start tr ~trace_id:i ~component:Obs.Span.Certifier
        ~name:(string_of_int i) ()
    in
    Obs.Trace.finish tr s
  done;
  Alcotest.(check int) "capacity bounds retention" 4 (Obs.Trace.length tr);
  Alcotest.(check int) "overwrites counted" 6 (Obs.Trace.dropped tr);
  Alcotest.(check (list string)) "oldest evicted first" [ "6"; "7"; "8"; "9" ]
    (List.map (fun s -> s.Obs.Span.name) (Obs.Trace.spans tr));
  Obs.Trace.clear tr;
  Alcotest.(check int) "clear empties" 0 (Obs.Trace.length tr)

let test_trace_disabled_is_free () =
  (* The option-threaded entry points must accept [None] everywhere. *)
  let span =
    Obs.Trace.start_opt None ~trace_id:0 ~component:Obs.Span.Load_balancer ~name:"x" ()
  in
  Alcotest.(check bool) "no span materializes" true (span = None);
  Obs.Trace.finish_opt None span;
  Obs.Trace.instant_opt None ~trace_id:0 ~component:Obs.Span.Load_balancer ~name:"x" ()

(* --- Registry --- *)

let test_registry_counters_and_gauges () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "commits" in
  Obs.Registry.incr c;
  Obs.Registry.incr ~by:4 c;
  Alcotest.(check int) "counter accumulates" 5 (Obs.Registry.counter_value c);
  Alcotest.(check bool) "find-or-create returns the same cell" true
    (Obs.Registry.counter r "commits" == c);
  let g = Obs.Registry.gauge r "queue" in
  Obs.Registry.set g 3.5;
  Alcotest.(check (float 0.0)) "gauge holds last value" 3.5 (Obs.Registry.gauge_value g);
  Alcotest.(check (list (pair string (float 0.0))))
    "snapshot sorted by name"
    [ ("commits", 5.0); ("queue", 3.5) ]
    (Obs.Registry.snapshot r);
  Alcotest.(check (option (float 0.0))) "find widens counters" (Some 5.0)
    (Obs.Registry.find r "commits");
  Obs.Registry.reset r;
  Alcotest.(check int) "reset zeroes counters" 0 (Obs.Registry.counter_value c);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Registry.gauge: \"commits\" is a counter") (fun () ->
      ignore (Obs.Registry.gauge r "commits"))

(* --- Timeseries (windowed run-health telemetry) --- *)

(* A scripted 3-window run: activity in windows 0 and 1, silence in the
   flushed partial window 2. *)
let scripted_timeseries () =
  let engine = Sim.Engine.create () in
  let ts = Obs.Timeseries.create ~window_ms:10.0 engine in
  let c = Obs.Timeseries.counter ts "ev" in
  let d = Obs.Timeseries.dist ts "lat" in
  Obs.Timeseries.add_probe ts ~name:"clock" (fun () -> Sim.Engine.now engine);
  Obs.Timeseries.add_pre_close ts (fun () ->
      Obs.Timeseries.bump ~by:5 (Obs.Timeseries.counter ts "hook"));
  Sim.Process.spawn engine (fun () ->
      Obs.Timeseries.bump c;
      Obs.Timeseries.observe d 1.0;
      Sim.Process.sleep engine 12.0;
      Obs.Timeseries.bump ~by:2 c;
      Obs.Timeseries.observe d 100.0;
      Sim.Process.sleep engine 13.0);
  Obs.Timeseries.start ts;
  Sim.Engine.schedule engine ~delay:25.0 (fun () -> Obs.Timeseries.stop ts);
  Sim.Engine.run engine;
  Obs.Timeseries.flush ts;
  ts

let test_timeseries_windows_and_channels () =
  let ts = scripted_timeseries () in
  match Obs.Timeseries.windows ts with
  | [ w0; w1; w2 ] ->
    Alcotest.(check int) "window sequence" 0 w0.Obs.Timeseries.seq;
    Alcotest.(check (float 1e-9)) "w0 spans [0, 10)" 10.0 w0.Obs.Timeseries.end_ms;
    Alcotest.(check (list (pair string int)))
      "w0 counters (sorted; hook from pre_close)"
      [ ("ev", 1); ("hook", 5) ]
      w0.Obs.Timeseries.counters;
    Alcotest.(check (list (pair string int)))
      "counters reset at the boundary"
      [ ("ev", 2); ("hook", 5) ]
      w1.Obs.Timeseries.counters;
    Alcotest.(check (float 1e-9)) "windowed rate is count over span" 200.0
      (Obs.Timeseries.rate_per_sec w1 "ev");
    Alcotest.(check (float 1e-9)) "unknown counter rates 0" 0.0
      (Obs.Timeseries.rate_per_sec w1 "nope");
    Alcotest.(check (option (float 1e-9))) "probe read at each close" (Some 10.0)
      (Obs.Timeseries.gauge_value w0 "clock");
    (match Obs.Timeseries.summary_of w1 "lat" with
    | Some s ->
      Alcotest.(check int) "one observation in w1" 1 s.Obs.Timeseries.count;
      Alcotest.(check (float 0.0)) "w1 max is the sample" 100.0 s.Obs.Timeseries.max
    | None -> Alcotest.fail "no lat summary in w1");
    (* The flushed partial window: empty but for the gauges and hook. *)
    Alcotest.(check (list (pair string int)))
      "flushed window saw no events"
      [ ("ev", 0); ("hook", 5) ]
      w2.Obs.Timeseries.counters;
    (match Obs.Timeseries.summary_of w2 "lat" with
    | Some s -> Alcotest.(check int) "empty dist summary" 0 s.Obs.Timeseries.count
    | None -> Alcotest.fail "dist channel missing from flushed window")
  | ws -> Alcotest.failf "expected 3 windows, got %d" (List.length ws)

let test_timeseries_merged_rolls_up () =
  let ts = scripted_timeseries () in
  match Obs.Timeseries.merged ts "lat" with
  | None -> Alcotest.fail "no merged histogram"
  | Some h ->
    Alcotest.(check int) "both windows' samples" 2 (Util.Histogram.Log.count h);
    Alcotest.(check (float 0.0)) "whole-run min" 1.0 (Util.Histogram.Log.min_value h);
    Alcotest.(check (float 0.0)) "whole-run max" 100.0 (Util.Histogram.Log.max_value h)

let test_timeseries_flush_needs_elapsed_time () =
  let ts = scripted_timeseries () in
  let n = List.length (Obs.Timeseries.windows ts) in
  Obs.Timeseries.flush ts;
  Alcotest.(check int) "flush with no elapsed time is a no-op" n
    (List.length (Obs.Timeseries.windows ts))

let test_timeseries_json_parses_back () =
  let ts = scripted_timeseries () in
  let doc =
    match Obs.Json.parse (Obs.Json.to_string (Obs.Export.timeseries_json ts)) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "timeseries export is not valid JSON: %s" e
  in
  Alcotest.(check (option (float 1e-9))) "window_ms" (Some 10.0)
    (Option.bind (Obs.Json.member "window_ms" doc) Obs.Json.to_float);
  match Option.bind (Obs.Json.member "windows" doc) Obs.Json.to_list with
  | Some ws ->
    Alcotest.(check int) "one object per window" 3 (List.length ws);
    let w0 = List.hd ws in
    Alcotest.(check (option (float 1e-9))) "counters serialized" (Some 1.0)
      (Option.bind
         (Option.bind (Obs.Json.member "counters" w0) (Obs.Json.member "ev"))
         Obs.Json.to_float)
  | None -> Alcotest.fail "no windows array"

(* --- JSON codec --- *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("s", Obs.Json.Str "a \"quoted\"\nline\twith \\ and unicode \x1b");
        ("n", Obs.Json.Num 1.5);
        ("i", Obs.Json.Num 3.0);
        ("neg", Obs.Json.Num (-0.25));
        ("b", Obs.Json.Bool true);
        ("null", Obs.Json.Null);
        ("arr", Obs.Json.Arr [ Obs.Json.Num 1.0; Obs.Json.Str "x"; Obs.Json.Obj [] ]);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "print/parse round-trips" true (parsed = doc)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun input ->
      match Obs.Json.parse input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" input)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2" ]

(* --- End-to-end: traced cluster run exported as Chrome trace JSON --- *)

let tpcw_traced_trace () =
  let config =
    {
      Core.Config.tpcw with
      Core.Config.replicas = 3;
      seed = 42;
      gc_interval_ms = 0.0;
      hiccup_interval_ms = 0.0;
    }
  in
  let params =
    { Workload.Tpcw.default with Workload.Tpcw.think_mean_ms = 100.0 }
  in
  let cluster =
    Core.Cluster.create ~config ~tracing:true ~mode:Core.Consistency.Fine
      ~schemas:Workload.Tpcw.schemas ~load:(Workload.Tpcw.load params) ()
  in
  for sid = 0 to 11 do
    Core.Client.spawn cluster ~sid ~rng:(Core.Cluster.rng cluster)
      (Workload.Tpcw.workload params Workload.Tpcw.Ordering ~sid)
  done;
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:2_000.0;
  match Core.Cluster.trace cluster with
  | Some trace -> trace
  | None -> Alcotest.fail "tracing-enabled cluster has no trace"

let test_chrome_export_parses_back () =
  let trace = tpcw_traced_trace () in
  let doc =
    match Obs.Json.parse (Obs.Export.chrome_trace trace) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "exported trace is not valid JSON: %s" e
  in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some events -> events
    | None -> Alcotest.fail "no traceEvents array"
  in
  let field name ev = Obs.Json.member name ev in
  let str name ev = Option.bind (field name ev) Obs.Json.to_str in
  let num name ev = Option.bind (field name ev) Obs.Json.to_float in
  let complete = List.filter (fun ev -> str "ph" ev = Some "X") events in
  Alcotest.(check bool) "has spans" true (complete <> []);
  (* The §V.A acceptance bar: spans from all three middleware
     components — load balancer, replicas, certifier. *)
  let pids =
    List.sort_uniq compare (List.filter_map (fun ev -> num "pid" ev) complete)
  in
  List.iter
    (fun component ->
      let pid = float_of_int (Obs.Span.pid component) in
      Alcotest.(check bool)
        (Printf.sprintf "spans from %s" (Obs.Span.component_name component))
        true (List.mem pid pids))
    [ Obs.Span.Load_balancer; Obs.Span.Replica 0; Obs.Span.Certifier ];
  (* Every complete event is well-formed: ts/dur present, dur >= 0. *)
  List.iter
    (fun ev ->
      match (num "ts" ev, num "dur" ev, str "name" ev) with
      | Some _, Some dur, Some _ ->
        if dur < 0.0 then Alcotest.fail "negative span duration"
      | _ -> Alcotest.fail "span event missing ts/dur/name")
    complete;
  (* Metadata names every process that emitted spans. *)
  let named_pids =
    List.filter_map
      (fun ev -> if str "ph" ev = Some "M" then num "pid" ev else None)
      events
  in
  List.iter
    (fun pid ->
      Alcotest.(check bool) "span pid has metadata" true (List.mem pid named_pids))
    pids

let test_chrome_export_timeseries_counters () =
  (* A timeseries handed to the exporter renders as Chrome counter
     tracks: one "C" event per channel per window, stamped at the window
     end, under a named telemetry process. *)
  let ts = scripted_timeseries () in
  let engine = Sim.Engine.create () in
  let trace = Obs.Trace.create engine in
  let doc = Obs.Export.chrome_json ~timeseries:ts trace in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some events -> events
    | None -> Alcotest.fail "no traceEvents array"
  in
  let str name ev = Option.bind (Obs.Json.member name ev) Obs.Json.to_str in
  let counters = List.filter (fun ev -> str "ph" ev = Some "C") events in
  Alcotest.(check bool) "counter events present" true (counters <> []);
  Alcotest.(check bool) "windowed rates exported" true
    (List.exists (fun ev -> str "name" ev = Some "ev/s") counters);
  Alcotest.(check bool) "gauges exported" true
    (List.exists (fun ev -> str "name" ev = Some "clock") counters);
  Alcotest.(check bool) "dist p99 exported" true
    (List.exists (fun ev -> str "name" ev = Some "lat.p99") counters);
  Alcotest.(check bool) "telemetry process named" true
    (List.exists
       (fun ev ->
         str "ph" ev = Some "M"
         && Option.bind (Obs.Json.member "args" ev) (fun a ->
                Option.bind (Obs.Json.member "name" a) Obs.Json.to_str)
            = Some "telemetry")
       events)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_text_dump_mentions_components () =
  let trace = tpcw_traced_trace () in
  let text = Format.asprintf "%a" Obs.Export.pp_text trace in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "text dump mentions %s" needle)
        true
        (contains_substring text needle))
    [ "certify"; "refresh.apply"; "route" ]

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "spans in finish order" `Quick test_trace_spans_in_finish_order;
        Alcotest.test_case "ring overwrites oldest" `Quick test_trace_ring_overwrites_oldest;
        Alcotest.test_case "disabled path" `Quick test_trace_disabled_is_free;
      ] );
    ( "obs.registry",
      [ Alcotest.test_case "counters and gauges" `Quick test_registry_counters_and_gauges ]
    );
    ( "obs.timeseries",
      [
        Alcotest.test_case "windows and channels" `Quick
          test_timeseries_windows_and_channels;
        Alcotest.test_case "merged histograms roll up" `Quick
          test_timeseries_merged_rolls_up;
        Alcotest.test_case "flush idempotent" `Quick
          test_timeseries_flush_needs_elapsed_time;
        Alcotest.test_case "json export parses back" `Quick
          test_timeseries_json_parses_back;
      ] );
    ( "obs.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "chrome trace parses back" `Quick test_chrome_export_parses_back;
        Alcotest.test_case "chrome counter tracks" `Quick
          test_chrome_export_timeseries_counters;
        Alcotest.test_case "text dump" `Quick test_text_dump_mentions_components;
      ] );
  ]
