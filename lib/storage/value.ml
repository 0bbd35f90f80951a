type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

type ty = Tint | Tfloat | Ttext | Tbool

let matches ty v =
  match (ty, v) with
  | _, Null -> true
  | Tint, Int _ | Tfloat, Float _ | Ttext, Text _ | Tbool, Bool _ -> true
  | (Tint | Tfloat | Ttext | Tbool), _ -> false

(* Rank for cross-type comparisons; numerics share a rank so that ints and
   floats compare by value. *)
let rank = function Null -> 0 | Bool _ -> 1 | Int _ | Float _ -> 2 | Text _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Text x, Text y -> Stdlib.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Int x -> Hashtbl.hash x
  | Float x -> if Float.is_integer x then Hashtbl.hash (int_of_float x) else Hashtbl.hash x
  | Text x -> Hashtbl.hash x
  | Bool x -> Hashtbl.hash x

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int x -> Format.pp_print_int ppf x
  | Float x -> Format.fprintf ppf "%g" x
  | Text x -> Format.fprintf ppf "%S" x
  | Bool x -> Format.pp_print_bool ppf x

let to_string v = Format.asprintf "%a" pp v

let pp_ty ppf ty =
  Format.pp_print_string ppf
    (match ty with Tint -> "INT" | Tfloat -> "FLOAT" | Ttext -> "TEXT" | Tbool -> "BOOL")

let as_int = function Int x -> x | v -> invalid_arg ("Value.as_int: " ^ to_string v)
let as_float = function
  | Float x -> x
  | Int x -> float_of_int x
  | v -> invalid_arg ("Value.as_float: " ^ to_string v)
let as_text = function Text x -> x | v -> invalid_arg ("Value.as_text: " ^ to_string v)
