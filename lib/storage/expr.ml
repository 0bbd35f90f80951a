type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | Col of int
  | Cmp of cmp * t * t
  | And of t * t
  | Add of t * t
  | Sub of t * t

exception Type_error of string

let type_error fmt = Format.kasprintf (fun msg -> raise (Type_error msg)) fmt

let rec eval row expr =
  match expr with
  | Const v -> v
  | Col idx ->
    if idx < 0 || idx >= Array.length row then type_error "column %d out of range" idx
    else row.(idx)
  | Cmp (op, a, b) -> begin
    let va = eval row a and vb = eval row b in
    match (va, vb) with
    | Value.Null, _ | _, Value.Null -> Value.Bool false
    | _ ->
      let c = Value.compare va vb in
      let r =
        match op with
        | Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
      in
      Value.Bool r
  end
  | And (a, b) -> Value.Bool (eval_bool row a && eval_bool row b)
  | Add (a, b) -> arith row "+" ( + ) ( +. ) a b
  | Sub (a, b) -> arith row "-" ( - ) ( -. ) a b

and arith row name int_op float_op a b =
  match (eval row a, eval row b) with
  | Value.Int x, Value.Int y -> Value.Int (int_op x y)
  | (Value.Int _ | Value.Float _), Value.Null | Value.Null, (Value.Int _ | Value.Float _) ->
    Value.Null
  | ((Value.Int _ | Value.Float _) as x), ((Value.Int _ | Value.Float _) as y) ->
    Value.Float (float_op (Value.as_float x) (Value.as_float y))
  | va, vb ->
    type_error "arithmetic %s on %s and %s" name (Value.to_string va) (Value.to_string vb)

and eval_bool row expr =
  match eval row expr with
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> type_error "expected boolean, got %s" (Value.to_string v)

let columns expr =
  let acc = ref [] in
  let rec walk = function
    | Const _ -> ()
    | Col i -> if not (List.mem i !acc) then acc := i :: !acc
    | Cmp (_, a, b) | And (a, b) | Add (a, b) | Sub (a, b) ->
      walk a;
      walk b
  in
  walk expr;
  List.sort Stdlib.compare !acc

let col schema name =
  match Schema.column_index schema name with
  | idx -> Col idx
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Expr.col: unknown column %s.%s" schema.Schema.table_name name)

let i x = Const (Value.Int x)
let f x = Const (Value.Float x)
let s x = Const (Value.Text x)
let ( = ) a b = Cmp (Eq, a, b)
let ( <> ) a b = Cmp (Ne, a, b)
let ( < ) a b = Cmp (Lt, a, b)
let ( <= ) a b = Cmp (Le, a, b)
let ( > ) a b = Cmp (Gt, a, b)
let ( >= ) a b = Cmp (Ge, a, b)
let ( && ) a b = And (a, b)
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
