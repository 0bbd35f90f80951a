(* Index values resolve under the store's value equality, like keys do
   under {!Mvcc.Key_hashed}: an [Int] and the integral [Float] of the
   same value are one index entry. *)
module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type secondary = {
  sec_column : int;
  entries : unit Mvcc.Key_tbl.t Value_tbl.t;
}

type t = {
  schema : Schema.t;
  store : Mvcc.t;
  secondaries : secondary list;
}

let create schema =
  let secondaries =
    Array.to_list schema.Schema.indexed
    |> List.map (fun sec_column -> { sec_column; entries = Value_tbl.create 256 })
  in
  { schema; store = Mvcc.create (); secondaries }

let copy_secondary sec =
  let entries = Value_tbl.copy sec.entries in
  Value_tbl.filter_map_inplace (fun _ bucket -> Some (Mvcc.Key_tbl.copy bucket)) entries;
  { sec with entries }

let copy t =
  { t with store = Mvcc.copy t.store; secondaries = List.map copy_secondary t.secondaries }

let schema t = t.schema

let name t = t.schema.Schema.table_name

let index_insert sec key value =
  let bucket =
    match Value_tbl.find_opt sec.entries value with
    | Some bucket -> bucket
    | None ->
      let bucket = Mvcc.Key_tbl.create 4 in
      Value_tbl.add sec.entries value bucket;
      bucket
  in
  Mvcc.Key_tbl.replace bucket key ()

let index_row t key = function
  | None -> ()
  | Some row ->
    List.iter (fun sec -> index_insert sec key row.(sec.sec_column)) t.secondaries

let install t ~key ~version row =
  Mvcc.install t.store key ~version row;
  index_row t key row

let install_if_newer t ~key ~version row =
  let installed = Mvcc.install_if_newer t.store key ~version row in
  if installed then index_row t key row;
  installed

let read t ~key ~at = Mvcc.read t.store key ~at

let latest_version t ~key = Mvcc.latest_version t.store key

let index_entries t ~column =
  match List.find_opt (fun sec -> sec.sec_column = column) t.secondaries with
  | None -> 0
  | Some sec ->
    Value_tbl.fold (fun _ bucket acc -> acc + Mvcc.Key_tbl.length bucket) sec.entries 0

let has_index t ~column = List.exists (fun sec -> sec.sec_column = column) t.secondaries

let index_lookup t ~column ~value ~at =
  match List.find_opt (fun sec -> sec.sec_column = column) t.secondaries with
  | None ->
    invalid_arg
      (Printf.sprintf "Table.index_lookup: no index on %s column %d" (name t) column)
  | Some sec -> begin
    match Value_tbl.find_opt sec.entries value with
    | None -> []
    | Some bucket ->
      Mvcc.Key_tbl.fold
        (fun key () acc ->
          match Mvcc.read t.store key ~at with
          | Some row when Value.equal row.(column) value -> (key, row) :: acc
          | Some _ | None -> acc)
        bucket []
  end

let scan_with ~iter t ~at ?where ?limit () =
  let pred = match where with Some p -> p | None -> fun _ -> true in
  let examined = ref 0 in
  let hits = ref [] in
  let hit_count = ref 0 in
  let max_hits = match limit with Some l -> l | None -> max_int in
  (try
     iter t.store (fun key ->
         if !hit_count >= max_hits then raise Exit;
         match Mvcc.read t.store key ~at with
         | None -> incr examined
         | Some row ->
           incr examined;
           if pred row then begin
             hits := (key, row) :: !hits;
             incr hit_count
           end)
   with Exit -> ());
  (List.rev !hits, !examined)

let scan t ~at ?where ?limit () = scan_with ~iter:Mvcc.iter_keys_ordered t ~at ?where ?limit ()

let range_scan t ~at ?lo ?hi ?where ?limit () =
  scan_with ~iter:(fun store f -> Mvcc.iter_keys_range store ?lo ?hi f) t ~at ?where ?limit ()

let row_count t ~at = Mvcc.fold_visible t.store ~at ~init:0 ~f:(fun acc _ _ -> acc + 1)

let version_count t = Mvcc.version_count t.store

let fold_visible t ~at ~init ~f = Mvcc.fold_visible t.store ~at ~init ~f

let gc t ~keep_after = Mvcc.gc t.store ~keep_after
