module Itbl = Util.Tables.Itbl

type op =
  | Put of Value.t array
  | Delete

type entry = {
  ws_table : string;
  ws_key : Value.t array;
  ws_op : op;
}

type t = {
  items : entry list;  (* insertion order *)
  kids : int array;  (* conflict ids aligned with [items] *)
  origin : Intern.t;  (* the table [kids] were resolved against *)
}

let of_entries ~intern entries =
  (* Later writes supersede earlier ones for the same record; keep first
     occurrence position for ordering. Each entry's conflict id is
     resolved exactly once; superseding and dedup then run over dense
     ints — no tuple keys, no polymorphic hashing of value arrays. *)
  let resolved =
    List.map (fun e -> (Intern.id intern ~table:e.ws_table ~key:e.ws_key, e)) entries
  in
  let last = Itbl.create 16 in
  List.iter (fun (id, e) -> Itbl.replace last id e) resolved;
  let seen = Itbl.create 16 in
  let items_rev, kids_rev =
    List.fold_left
      (fun (items, kids) (id, _) ->
        if Itbl.mem seen id then (items, kids)
        else begin
          Itbl.add seen id ();
          (Itbl.find last id :: items, id :: kids)
        end)
      ([], []) resolved
  in
  { items = List.rev items_rev; kids = Array.of_list (List.rev kids_rev); origin = intern }

let of_resolved ~intern items cids = { items; kids = cids; origin = intern }

let is_empty t = t.items = []

let entries t = t.items

let cardinal t = Array.length t.kids

let cids t ~intern =
  if t.origin == intern then t.kids
  else invalid_arg "Writeset.cids: writeset built against another intern table"

let tables t =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun e ->
      if Hashtbl.mem seen e.ws_table then None
      else begin
        Hashtbl.add seen e.ws_table ();
        Some e.ws_table
      end)
    t.items
