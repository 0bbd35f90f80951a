(** Typed data values stored in table cells. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

type ty = Tint | Tfloat | Ttext | Tbool

val matches : ty -> t -> bool
(** Whether the value inhabits the type ([Null] matches every type). *)

val compare : t -> t -> int
(** Total order: Null < Bool < Int ~ Float (numeric order) < Text.
    Ints and floats compare numerically with each other. *)

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val pp_ty : Format.formatter -> ty -> unit

(** Coercions; raise [Invalid_argument] on type mismatch. *)

val as_int : t -> int
val as_float : t -> float
val as_text : t -> string
