type t =
  | Select of { table : string; where : Expr.t option; limit : int option }
  | Get of { table : string; key : Mvcc.key }
  | Range of {
      table : string;
      lo : Mvcc.key option;
      hi : Mvcc.key option;
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
  | Join of {
      left : string;
      right : string;
      left_col : string;
      right_col : string;
      left_where : Expr.t option;
      limit : int option;
    }
  | Update_key of { table : string; key : Mvcc.key; set : (string * Expr.t) list }
  | Insert of { table : string; row : Value.t array }
  | Put of { table : string; row : Value.t array }
  | Delete of { table : string; where : Expr.t option }
  | Delete_key of { table : string; key : Mvcc.key }

type result =
  | Rows of Value.t array list
  | Affected of int
  | Error of string

let table_of = function
  | Select { table; _ }
  | Get { table; _ }
  | Range { table; _ }
  | Group_count { table; _ }
  | Update_key { table; _ }
  | Insert { table; _ }
  | Put { table; _ }
  | Delete { table; _ }
  | Delete_key { table; _ } -> table
  | Join { left; _ } -> left

let tables_of = function
  | Join { left; right; _ } -> [ left; right ]
  | stmt -> [ table_of stmt ]

let is_update = function
  | Select _ | Get _ | Range _ | Group_count _ | Join _ -> false
  | Update_key _ | Insert _ | Put _ | Delete _ | Delete_key _ -> true

let table_set statements =
  let seen = Hashtbl.create 8 in
  List.concat_map tables_of statements
  |> List.filter_map (fun table ->
         if Hashtbl.mem seen table then None
         else begin
           Hashtbl.add seen table ();
           Some table
         end)

let column_of txn ~table name =
  let schema = Table.schema (Database.table (Txn.database txn) table) in
  match Schema.column_index schema name with
  | idx -> idx
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Query: unknown column %s.%s" table name)

let run_group_count txn ~table ~group_column ~lo ~hi ~limit =
  let column = column_of txn ~table group_column in
  let rows = Txn.range txn ~table ?lo ?hi () in
  let counts : (Value.t, int ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let v = row.(column) in
      match Hashtbl.find_opt counts v with
      | Some r -> incr r
      | None -> Hashtbl.add counts v (ref 1))
    rows;
  let groups = Hashtbl.fold (fun v r acc -> (v, !r) :: acc) counts [] in
  let ordered =
    List.sort
      (fun (va, ca) (vb, cb) ->
        match compare cb ca with 0 -> Value.compare va vb | c -> c)
      groups
  in
  List.filteri (fun i _ -> i < limit) ordered
  |> List.map (fun (v, c) -> [| v; Value.Int c |])

let run_join txn ~left ~right ~left_col ~right_col ~left_where ~limit =
  let lcol = column_of txn ~table:left left_col in
  ignore (column_of txn ~table:right right_col);  (* validate the column exists *)
  let right_schema = Table.schema (Database.table (Txn.database txn) right) in
  let left_rows = Txn.select txn ~table:left ?where:left_where ?limit () in
  let max_out = match limit with Some l -> l | None -> max_int in
  let out = ref [] in
  let count = ref 0 in
  (try
     List.iter
       (fun lrow ->
         let key_value = lrow.(lcol) in
         let matches =
           Txn.select txn ~table:right
             ~where:Expr.(col right_schema right_col = Const key_value)
             ()
         in
         List.iter
           (fun rrow ->
             if !count >= max_out then raise Exit;
             out := Array.append lrow rrow :: !out;
             incr count)
           matches)
       left_rows
   with Exit -> ());
  List.rev !out

let exec txn stmt =
  Txn.clear_cost txn;
  let result =
    match stmt with
    | Select { table; where; limit } -> Rows (Txn.select txn ~table ?where ?limit ())
    | Get { table; key } -> begin
      match Txn.get txn ~table ~key with Some row -> Rows [ row ] | None -> Rows []
    end
    | Range { table; lo; hi; where; limit } ->
      Rows (Txn.range txn ~table ?lo ?hi ?where ?limit ())
    | Group_count { table; group_column; lo; hi; limit } ->
      Rows (run_group_count txn ~table ~group_column ~lo ~hi ~limit)
    | Join { left; right; left_col; right_col; left_where; limit } ->
      Rows (run_join txn ~left ~right ~left_col ~right_col ~left_where ~limit)
    | Update_key { table; key; set } ->
      Affected (if Txn.update_key txn ~table ~key ~set then 1 else 0)
    | Insert { table; row } -> begin
      match Txn.insert txn ~table row with Ok () -> Affected 1 | Result.Error msg -> Error msg
    end
    | Put { table; row } -> begin
      match Txn.put txn ~table row with Ok () -> Affected 1 | Result.Error msg -> Error msg
    end
    | Delete { table; where } -> Affected (Txn.delete txn ~table ?where ())
    | Delete_key { table; key } -> Affected (if Txn.delete_key txn ~table ~key then 1 else 0)
  in
  (result, Txn.reset_cost txn)
