type column = {
  col_name : string;
  col_type : Value.ty;
  nullable : bool;
}

type t = {
  table_name : string;
  columns : column array;
  primary_key : int array;
  indexed : int array;
}

let column_index t name =
  let rec find i =
    if i >= Array.length t.columns then raise Not_found
    else if String.equal t.columns.(i).col_name name then i
    else find (i + 1)
  in
  find 0

let make ~name ~columns ?(nullable = []) ?(indexes = []) ~key () =
  if key = [] then invalid_arg "Schema.make: empty primary key";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (col_name, _) ->
      if Hashtbl.mem seen col_name then
        invalid_arg ("Schema.make: duplicate column " ^ col_name);
      Hashtbl.add seen col_name ())
    columns;
  let columns_arr =
    Array.of_list
      (List.map
         (fun (col_name, col_type) ->
           { col_name; col_type; nullable = List.mem col_name nullable })
         columns)
  in
  let t = { table_name = name; columns = columns_arr; primary_key = [||]; indexed = [||] } in
  let resolve col_name =
    match column_index t col_name with
    | i -> i
    | exception Not_found -> invalid_arg ("Schema.make: unknown column " ^ col_name)
  in
  let primary_key = Array.of_list (List.map resolve key) in
  let indexed = Array.of_list (List.map resolve indexes) in
  Array.iter
    (fun i ->
      if columns_arr.(i).nullable then
        invalid_arg ("Schema.make: key column may not be nullable: " ^ columns_arr.(i).col_name))
    primary_key;
  { t with primary_key; indexed }

let key_of_row t row = Array.map (fun i -> row.(i)) t.primary_key

let validate_row t row =
  if Array.length row <> Array.length t.columns then
    Error
      (Printf.sprintf "%s: arity mismatch: expected %d columns, got %d" t.table_name
         (Array.length t.columns) (Array.length row))
  else begin
    let error = ref None in
    Array.iteri
      (fun i col ->
        if !error = None then begin
          let v = row.(i) in
          if v = Value.Null && not col.nullable then
            error :=
              Some (Printf.sprintf "%s.%s: NULL in non-nullable column" t.table_name col.col_name)
          else if not (Value.matches col.col_type v) then
            error :=
              Some
                (Format.asprintf "%s.%s: type mismatch: expected %a, got %a" t.table_name
                   col.col_name Value.pp_ty col.col_type Value.pp v)
        end)
      t.columns;
    match !error with None -> Ok () | Some msg -> Error msg
  end
