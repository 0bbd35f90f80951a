type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | Col of int
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Concat of t * t
  | Is_null of t
  | Like of t * string

exception Type_error of string

(* LIKE matching with % and _ wildcards; classic two-pointer algorithm
   with backtracking on the last %. *)
let like_match ~pattern s =
  let pl = String.length pattern and sl = String.length s in
  let rec go pi si star_pi star_si =
    if si >= sl then begin
      (* Consume trailing %s. *)
      let rec only_percents i = i >= pl || (pattern.[i] = '%' && only_percents (i + 1)) in
      only_percents pi
    end
    else if pi < pl && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
      go (pi + 1) (si + 1) star_pi star_si
    else if pi < pl && pattern.[pi] = '%' then go (pi + 1) si pi si
    else if star_pi >= 0 then go (star_pi + 1) (star_si + 1) star_pi (star_si + 1)
    else false
  in
  go 0 0 (-1) (-1)

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
  | Or (a, b) -> Value.Bool (eval_bool row a || eval_bool row b)
  | Not a -> Value.Bool (not (eval_bool row a))
  | Add (a, b) -> arith row "+" ( + ) ( +. ) a b
  | Sub (a, b) -> arith row "-" ( - ) ( -. ) a b
  | Mul (a, b) -> arith row "*" ( * ) ( *. ) a b
  | Concat (a, b) -> begin
    match (eval row a, eval row b) with
    | Value.Text x, Value.Text y -> Value.Text (x ^ y)
    | va, vb ->
      type_error "concat of non-text values %s and %s" (Value.to_string va) (Value.to_string vb)
  end
  | Is_null a -> Value.Bool (eval row a = Value.Null)
  | Like (a, pattern) -> begin
    match eval row a with
    | Value.Text s -> Value.Bool (like_match ~pattern s)
    | Value.Null | Value.Int _ | Value.Float _ | Value.Bool _ -> Value.Bool false
  end

and arith row name int_op float_op a b =
  match (eval row a, eval row b) with
  | Value.Int x, Value.Int y -> Value.Int (int_op x y)
  | (Value.Int _ | Value.Float _), Value.Null | Value.Null, (Value.Int _ | Value.Float _) ->
    Value.Null
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    let x = Value.as_float (eval row a) and y = Value.as_float (eval row b) in
    Value.Float (float_op x y)
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
    | Cmp (_, a, b) | And (a, b) | Or (a, b) | Add (a, b) | Sub (a, b) | Mul (a, b)
    | Concat (a, b) ->
      walk a;
      walk b
    | Not a | Is_null a | Like (a, _) -> walk a
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
let b x = Const (Value.Bool x)
let ( = ) a b = Cmp (Eq, a, b)
let ( <> ) a b = Cmp (Ne, a, b)
let ( < ) a b = Cmp (Lt, a, b)
let ( <= ) a b = Cmp (Le, a, b)
let ( > ) a b = Cmp (Gt, a, b)
let ( >= ) a b = Cmp (Ge, a, b)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let like a pattern = Like (a, pattern)
