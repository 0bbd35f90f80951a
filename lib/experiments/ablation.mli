(** Ablation benchmarks for the design choices DESIGN.md calls out, all
    on the coarse-grained micro-benchmark (40 tables x 2,000 rows, 80
    clients, 1.5 s warm-up) unless the ablation varies the mode:

    {ol
    {- [Apply]: writeset shipping (cheap refresh application) vs
       re-executing updates at every replica. The cheap-apply design is
       what lets the lazy configurations scale.}
    {- [Span]: fine-grained synchronization as update transactions touch
       more tables — the fine-grained start delay converges to the
       coarse-grained one.}
    {- [Early_cert]: hidden-deadlock avoidance on/off under a
       high-conflict workload — certifier-abort rate and wasted work.}
    {- [Routing]: least-active routing vs round-robin vs random vs
       session affinity.}} *)

type t = Apply | Span | Early_cert | Routing

val all : t list

val reexec : Core.Config.t -> Core.Config.t
(** [config] with refresh application priced like re-executing the
    update statements. *)

val points : quick:bool -> seed:int -> t -> Runner.point list
(** The ablation's variants, measured for 6 s (3 s when [quick]). *)

val render : t -> (Runner.point * Runner.summary) list -> string
(** One row per variant, labelled from its point. *)
