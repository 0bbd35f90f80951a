type secondary = {
  sec_column : int;
  entries : (Value.t, (Mvcc.key, unit) Hashtbl.t) Hashtbl.t;
}

type t = {
  schema : Schema.t;
  store : Mvcc.t;
  secondaries : secondary list;
}

let create schema =
  let secondaries =
    Array.to_list schema.Schema.indexed
    |> List.map (fun sec_column -> { sec_column; entries = Hashtbl.create 256 })
  in
  { schema; store = Mvcc.create (); secondaries }

let schema t = t.schema

let name t = t.schema.Schema.table_name

let index_insert sec key value =
  let bucket =
    match Hashtbl.find_opt sec.entries value with
    | Some bucket -> bucket
    | None ->
      let bucket = Hashtbl.create 4 in
      Hashtbl.add sec.entries value bucket;
      bucket
  in
  Hashtbl.replace bucket key ()

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
  | Some sec -> Hashtbl.fold (fun _ bucket acc -> acc + Hashtbl.length bucket) sec.entries 0

let has_index t ~column = List.exists (fun sec -> sec.sec_column = column) t.secondaries

let index_lookup t ~column ~value ~at =
  match List.find_opt (fun sec -> sec.sec_column = column) t.secondaries with
  | None ->
    invalid_arg
      (Printf.sprintf "Table.index_lookup: no index on %s column %d" (name t) column)
  | Some sec -> begin
    match Hashtbl.find_opt sec.entries value with
    | None -> []
    | Some bucket ->
      Hashtbl.fold
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

let key_count t = Mvcc.key_count t.store

let version_count t = Mvcc.version_count t.store

let fold_chains t ~init ~f = Mvcc.fold_chains t.store ~init ~f

let fold_visible t ~at ~init ~f = Mvcc.fold_visible t.store ~at ~init ~f

let gc t ~keep_after = Mvcc.gc t.store ~keep_after
