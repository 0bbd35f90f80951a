(** Abstract transaction histories (paper §II).

    A history is a time-ordered sequence of begin / read / write /
    commit / abort operations by transactions over single-valued items,
    as in the paper's examples H1, H2, H3. Written values are assumed
    distinct per (transaction, item) so the reads-from relation is
    recoverable from values; the initial value of every item is 0,
    written by the virtual initial transaction. *)

type tx = int
type item = string

type op =
  | Begin of tx
  | Read of tx * item * int  (** value observed *)
  | Write of tx * item * int  (** value written *)
  | Commit of tx
  | Abort of tx

type t = op list

val committed : t -> tx list
(** Transactions with a [Commit], in commit order. *)

val well_formed : t -> (unit, string) result
(** Each transaction begins once, terminates at most once, and operates
    only between its begin and its termination. *)

val writes_of : t -> tx -> (item * int) list

val commits_before_begin : t -> (tx * tx) list
(** Pairs (ti, tj) of committed transactions such that ti's commit
    precedes tj's begin in real-time order. *)
