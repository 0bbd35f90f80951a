(* Windowed time-series aggregation on virtual time.

   Channels mutate plain refs/histograms on the hot path; the only
   simulation activity is the rollover process, which wakes once per
   window, runs the pre-close hooks, snapshots every channel, and
   resets the per-window state. Nothing here draws randomness, so an
   instrumented run executes the exact same protocol events as an
   uninstrumented one. *)

type counter = { c_name : string; mutable c_count : int }

type dist = {
  d_name : string;
  d_current : Util.Histogram.Log.t;  (* this window's observations *)
  mutable d_merged : Util.Histogram.Log.t;  (* whole-run roll-up *)
}

type summary = {
  count : int;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type window = {
  seq : int;
  start_ms : float;
  end_ms : float;
  counters : (string * int) list;
  gauges : (string * float) list;
  dists : (string * summary) list;
}

type probe = { p_name : string; p_read : unit -> float }

type t = {
  engine : Sim.Engine.t;
  window_ms : float;
  buckets_per_decade : int;
  counters : counter Util.Vec.t;
  dists : dist Util.Vec.t;
  probes : probe Util.Vec.t;
  pre_close : (unit -> unit) Util.Vec.t;
  windows : window Util.Vec.t;
  mutable window_start : float;
  mutable running : bool;
}

let create ?(window_ms = 250.0) ?(buckets_per_decade = 40) engine =
  if window_ms <= 0.0 then
    invalid_arg "Timeseries.create: window must be positive";
  {
    engine;
    window_ms;
    buckets_per_decade;
    counters = Util.Vec.create ();
    dists = Util.Vec.create ();
    probes = Util.Vec.create ();
    pre_close = Util.Vec.create ();
    windows = Util.Vec.create ();
    window_start = Sim.Engine.now engine;
    running = false;
  }

let window_ms t = t.window_ms

let find_channel vec name get_name =
  let found = ref None in
  for i = 0 to Util.Vec.length vec - 1 do
    let x = Util.Vec.get vec i in
    if get_name x = name then found := Some x
  done;
  !found

let counter t name =
  match find_channel t.counters name (fun c -> c.c_name) with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_count = 0 } in
    Util.Vec.push t.counters c;
    c

let bump ?(by = 1) c = c.c_count <- c.c_count + by

let dist t name =
  match find_channel t.dists name (fun d -> d.d_name) with
  | Some d -> d
  | None ->
    let d =
      {
        d_name = name;
        d_current =
          Util.Histogram.Log.create ~buckets_per_decade:t.buckets_per_decade ();
        d_merged =
          Util.Histogram.Log.create ~buckets_per_decade:t.buckets_per_decade ();
      }
    in
    Util.Vec.push t.dists d;
    d

let observe d x = Util.Histogram.Log.add d.d_current x

let add_probe t ~name p_read = Util.Vec.push t.probes { p_name = name; p_read }

let add_pre_close t f = Util.Vec.push t.pre_close f

let by_name (a, _) (b, _) = compare (a : string) b

let close_window t =
  for i = 0 to Util.Vec.length t.pre_close - 1 do
    (Util.Vec.get t.pre_close i) ()
  done;
  let counters =
    Util.Vec.to_list t.counters
    |> List.map (fun c ->
           let v = c.c_count in
           c.c_count <- 0;
           (c.c_name, v))
    |> List.sort by_name
  in
  let dists =
    Util.Vec.to_list t.dists
    |> List.map (fun d ->
           let h = d.d_current in
           let s =
             {
               count = Util.Histogram.Log.count h;
               p50 = Util.Histogram.Log.percentile h 50.0;
               p95 = Util.Histogram.Log.percentile h 95.0;
               p99 = Util.Histogram.Log.percentile h 99.0;
               max = Util.Histogram.Log.max_value h;
             }
           in
           d.d_merged <- Util.Histogram.Log.merge d.d_merged h;
           Util.Histogram.Log.clear h;
           (d.d_name, s))
    |> List.sort by_name
  in
  let gauges =
    Util.Vec.to_list t.probes
    |> List.map (fun p -> (p.p_name, p.p_read ()))
    |> List.sort by_name
  in
  let now = Sim.Engine.now t.engine in
  Util.Vec.push t.windows
    {
      seq = Util.Vec.length t.windows;
      start_ms = t.window_start;
      end_ms = now;
      counters;
      gauges;
      dists;
    };
  t.window_start <- now

let start t =
  if t.running then invalid_arg "Timeseries.start: already running";
  t.running <- true;
  t.window_start <- Sim.Engine.now t.engine;
  Sim.Process.spawn t.engine (fun () ->
      let rec loop () =
        if t.running then begin
          Sim.Process.sleep t.engine t.window_ms;
          (* Re-check after the sleep so [stop; run-to-drain] doesn't
             record a trailing partial window twice. *)
          if t.running then begin
            close_window t;
            loop ()
          end
        end
      in
      loop ())

let stop t = t.running <- false

let flush t =
  if Sim.Engine.now t.engine > t.window_start then close_window t

let windows t = Util.Vec.to_list t.windows

let merged t name =
  match find_channel t.dists name (fun d -> d.d_name) with
  | None -> None
  | Some d -> Some d.d_merged

let rate_per_sec (w : window) name =
  let span_ms = w.end_ms -. w.start_ms in
  if span_ms <= 0.0 then 0.0
  else
    match List.assoc_opt name w.counters with
    | None -> 0.0
    | Some n -> float_of_int n /. (span_ms /. 1000.0)

let gauge_value (w : window) name = List.assoc_opt name w.gauges

let summary_of (w : window) name = List.assoc_opt name w.dists
