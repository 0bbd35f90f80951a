(** Trace sinks: Chrome trace-event JSON and a compact text dump.

    The JSON loads in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}: components render as processes (load balancer, replicas,
    certifier, clients), replicas as threads, spans as nested slices,
    and time-series windows as counter tracks. *)

val chrome_json : ?timeseries:Timeseries.t -> Trace.t -> Json.t
(** The trace as a [{"traceEvents": [...]}] document; pass [timeseries]
    to include its windows as counter events. *)

val chrome_trace : ?timeseries:Timeseries.t -> Trace.t -> string

val write_chrome_trace : ?timeseries:Timeseries.t -> Trace.t -> file:string -> unit

val timeseries_json : Timeseries.t -> Json.t
(** The windowed series as a standalone document:
    [{"window_ms": w, "windows": [{"seq", "start_ms", "end_ms",
    "counters": {..}, "gauges": {..}, "dists": {name: {"count", "p50",
    "p95", "p99", "max"}}}]}]. Field order is deterministic (channels
    sorted by name), so two same-seed runs serialize byte-identically. *)

val write_timeseries : Timeseries.t -> file:string -> unit

val pp_text : Format.formatter -> Trace.t -> unit
(** One line per finished span, oldest first. *)
