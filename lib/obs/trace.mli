(** The tracing context: allocates span and trace ids on virtual time and
    retains finished spans in a bounded ring buffer (the in-memory sink).

    Tracing never schedules simulation events, never consumes random
    numbers, and never blocks — an instrumented run is {e bit-identical}
    in virtual time to an uninstrumented one. Instrumentation sites hold
    a [Trace.t option]; the [_opt] variants make the disabled path a
    single branch. *)

type t

val create : ?capacity:int -> Sim.Engine.t -> t
(** Ring-buffer capacity defaults to 65536 finished spans; once full, the
    oldest span is overwritten and {!dropped} increments. *)

val next_trace_id : t -> int
(** Allocate a fresh trace id (one per transaction). *)

val start :
  t ->
  trace_id:int ->
  ?parent:Span.t ->
  ?at:float ->
  component:Span.component ->
  name:string ->
  ?args:(string * string) list ->
  unit ->
  Span.t
(** Open a span at the current virtual time (or retroactively at [at]).
    The span is not in the buffer until {!finish}ed. *)

val finish : t -> ?args:(string * string) list -> ?at:float -> Span.t -> unit
(** Close the span at the current virtual time (or at [at]) and retain
    it. *)

(** {2 Option-threaded variants for instrumentation sites} *)

val start_opt :
  t option ->
  trace_id:int ->
  ?parent:Span.t option ->
  component:Span.component ->
  name:string ->
  ?args:(string * string) list ->
  unit ->
  Span.t option

val finish_opt : t option -> ?args:(string * string) list -> Span.t option -> unit

val instant_opt :
  t option -> trace_id:int -> component:Span.component -> name:string ->
  ?args:(string * string) list -> unit -> unit

(** {2 Reading the sink} *)

val spans : t -> Span.t list
(** Finished spans, oldest first (in finish order). *)

val length : t -> int
(** Spans currently retained. *)

val dropped : t -> int
(** Spans overwritten because the ring was full. *)

val clear : t -> unit
