(** Row expressions: the predicate and assignment language for queries.

    Expressions are evaluated against a single row (an array of
    {!Value.t}); column references are positional, resolved against a
    {!Schema.t} at construction time by the [col] helper. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | Col of int
  | Cmp of cmp * t * t
  | And of t * t
  | Add of t * t
  | Sub of t * t

exception Type_error of string

val eval : Value.t array -> t -> Value.t
(** Evaluate against a row. Raises {!Type_error} on ill-typed operations
    (e.g. adding a text to an int). Comparison with [Null] yields
    [Bool false]. *)

val eval_bool : Value.t array -> t -> bool
(** Evaluate a predicate; non-boolean results raise {!Type_error}. *)

val columns : t -> int list
(** Distinct column indices referenced, ascending. *)

(** Constructors. *)

val col : Schema.t -> string -> t
(** Column reference by name; raises [Invalid_argument] if unknown. *)

val i : int -> t
val f : float -> t
val s : string -> t
val ( = ) : t -> t -> t
val ( <> ) : t -> t -> t
val ( < ) : t -> t -> t
val ( <= ) : t -> t -> t
val ( > ) : t -> t -> t
val ( >= ) : t -> t -> t
val ( && ) : t -> t -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
