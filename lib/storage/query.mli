(** Prepared statements: SQL-operation values executed against a {!Txn.t}.

    Workloads build transactions as lists of statements with parameters
    already bound (the paper's "prepared statement" model), the replica
    executes them one by one and charges simulated CPU time from the
    returned {!Txn.cost}. [table_of] gives the static table a statement
    touches — the basis of the fine-grained approach's table-sets. *)

type t =
  | Select of { table : string; where : Expr.t option; limit : int option }
  | Get of { table : string; key : Mvcc.key }
  | Range of {
      table : string;
      lo : Mvcc.key option;
      hi : Mvcc.key option;  (** inclusive primary-key bounds *)
      where : Expr.t option;
      limit : int option;
    }
  | Group_count of {
      table : string;
      group_column : string;
      lo : Mvcc.key option;
      hi : Mvcc.key option;
      limit : int;
    }
      (** count rows per distinct value of [group_column] over the key
          range; returns the top [limit] groups as [\[| value; count |\]]
          rows, descending by count (the best-sellers shape) *)
  | Join of {
      left : string;
      right : string;
      left_col : string;
      right_col : string;  (** equi-join columns *)
      left_where : Expr.t option;
      limit : int option;
    }
      (** nested-loop equi-join probing the right table's index (or
          primary key) per left row; result rows are left @ right *)
  | Update_key of { table : string; key : Mvcc.key; set : (string * Expr.t) list }
  | Insert of { table : string; row : Value.t array }
  | Put of { table : string; row : Value.t array }  (** insert-or-replace *)
  | Delete of { table : string; where : Expr.t option }
  | Delete_key of { table : string; key : Mvcc.key }

type result =
  | Rows of Value.t array list
  | Affected of int
  | Error of string

val table_of : t -> string
(** The (left, for joins) table the statement accesses. *)

val is_update : t -> bool
(** Whether the statement may write. *)

val table_set : t list -> string list
(** Distinct tables accessed by a statement list, in first-use order:
    the transaction's table-set. *)

val exec : Txn.t -> t -> result * Txn.cost
(** Execute one statement; the cost covers only this statement. *)
