(** Abstract syntax of the supported SQL dialect.

    Statements: CREATE TABLE, SELECT (with WHERE / JOIN ... ON / GROUP BY
    / ORDER BY / LIMIT and aggregates), INSERT, UPDATE, DELETE, and the
    transaction-control statements BEGIN / COMMIT / ROLLBACK, plus SHOW
    TABLES and EXPLAIN-less niceties for the REPL. *)

type binop =
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Add | Sub | Mul
  | Concat

type expr =
  | Lit of Storage.Value.t
  | Column of string option * string  (** optional table qualifier *)
  | Binop of binop * expr * expr
  | Not of expr
  | Is_null of expr * bool  (** [true] = IS NULL, [false] = IS NOT NULL *)
  | Like of expr * string

type aggregate = Count_star | Sum of string | Avg of string | Min of string | Max of string

type projection =
  | Star
  | Columns of (string option * string) list
  | Aggregate of aggregate

type order_direction = Asc | Desc

type select = {
  projection : projection;
  from_table : string;
  join : (string * (string option * string) * (string option * string)) option;
      (** JOIN table ON qualified-col = qualified-col *)
  where : expr option;
  group_by : string option;  (** grouped column; pairs with a COUNT star projection *)
  order_by : (string * order_direction) option;
  limit : int option;
}

type column_def = {
  col_name : string;
  col_type : Storage.Value.ty;
  nullable : bool;
  primary : bool;  (** column-level PRIMARY KEY marker *)
}

type stmt =
  | Select of select
  | Insert of { table : string; columns : string list option; values : expr list list }
  | Update of { table : string; set : (string * expr) list; where : expr option }
  | Delete of { table : string; where : expr option }
  | Create_table of {
      name : string;
      columns : column_def list;
      primary_key : string list;  (** table-level PRIMARY KEY (...) if given *)
      indexes : string list;  (** INDEX (col) constraints *)
    }
  | Begin
  | Commit
  | Rollback
  | Show_tables
