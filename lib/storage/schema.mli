(** Table schemas: column definitions, primary key, secondary indexes. *)

type column = {
  col_name : string;
  col_type : Value.ty;
  nullable : bool;
}

type t = {
  table_name : string;
  columns : column array;
  primary_key : int array;  (** column indices forming the key *)
  indexed : int array;  (** columns with a secondary index *)
}

val make :
  name:string ->
  columns:(string * Value.ty) list ->
  ?nullable:string list ->
  ?indexes:string list ->
  key:string list ->
  unit ->
  t
(** Build a schema; raises [Invalid_argument] on unknown column names,
    duplicate columns, or an empty key. *)

val column_index : t -> string -> int
(** Raises [Not_found] for unknown names. *)

val key_of_row : t -> Value.t array -> Value.t array
(** Extract the primary-key values from a full row. *)

val validate_row : t -> Value.t array -> (unit, string) result
(** Arity, type and nullability check. Key columns must be non-null. *)
