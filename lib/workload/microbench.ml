type params = {
  tables : int;
  rows : int;
  update_types : int;
}

let default = { tables = 40; rows = 10_000; update_types = 0 }

(* Request builders run once per simulated transaction, so the strings
   they attach (table names, metrics profiles) are memoized: formatting
   them per request was a measurable share of the simulator's minor-heap
   traffic. [memo f] caches [f 0 .. f n] in a growable array; reads are
   race-tolerant (worst case a value is recomputed), so sharing across
   run-driver domains is safe. *)
let memo (f : int -> 'a) : int -> 'a =
  let cache = ref [||] in
  fun i ->
    let c = !cache in
    if i < Array.length c then c.(i)
    else begin
      let n = Array.length c in
      let c' =
        Array.init
          (max (i + 1) (max 16 (2 * n)))
          (fun j -> if j < n then c.(j) else f j)
      in
      cache := c';
      c'.(i)
    end

let table_name = memo (fun i -> Printf.sprintf "t%02d" i)

let upd_profile = memo (fun i -> "upd_" ^ table_name i)
let read_profile = memo (fun i -> "read_" ^ table_name i)
let hot_upd_profile = memo (fun i -> "hot_upd_" ^ table_name i)

let tiered_read_profile =
  let strong = memo (fun i -> "strong_read_" ^ table_name i)
  and bounded = memo (fun i -> "bounded_read_" ^ table_name i)
  and causal = memo (fun i -> "causal_read_" ^ table_name i)
  and eventual = memo (fun i -> "eventual_read_" ^ table_name i) in
  fun tier i ->
    match (tier : Core.Consistency.read_tier) with
    | Strong -> strong i
    | Bounded_staleness _ -> bounded i
    | Causal -> causal i
    | Eventual -> eventual i

let upd_span_profile =
  memo (fun span -> memo (fun t -> Printf.sprintf "upd_span%d_%02d" span t))

(* Every single-statement request's table-set is [[table_name i]];
   passing it explicitly skips [Storage.Query.table_set]'s per-request
   dedup table. *)
let single_table_set = memo (fun i -> [ table_name i ])

(* Primary keys are immutable once built (MVCC stores them as-is), so
   one [\[| Int row |\]] array per row id serves every request. *)
let row_key = memo (fun row -> [| Storage.Value.Int row |])

(* The update expression [val := val + 1] is the same tree in every
   update statement. *)
let incr_val = [ ("val", Storage.Expr.(Col 1 + i 1)) ]

(* One shared pad value: immutable, so every row aliases the same string. *)
let pad = String.make 100 'x'

let schema i =
  Storage.Schema.make ~name:(table_name i)
    ~columns:
      [ ("id", Storage.Value.Tint); ("val", Storage.Value.Tint); ("pad", Storage.Value.Ttext) ]
    ~key:[ "id" ] ()

let schemas p = List.init p.tables schema

let load p db =
  (* Every table starts with the same rows, so one list serves them all. *)
  let rows =
    List.init p.rows (fun i ->
        [| Storage.Value.Int i; Storage.Value.Int (i * 17 mod 97); Storage.Value.Text pad |])
  in
  for t = 0 to p.tables - 1 do
    Storage.Database.load db (table_name t) rows
  done

let request p rng =
  assert (p.update_types >= 0 && p.update_types <= p.tables);
  let tx_type = Util.Rng.int rng p.tables in
  let table = table_name tx_type in
  let key = row_key (Util.Rng.int rng p.rows) in
  if tx_type < p.update_types then
    Core.Transaction.make ~profile:(upd_profile tx_type)
      ~table_set:(single_table_set tx_type)
      [
        Storage.Query.Update_key
          {
            table;
            key;
            set = incr_val;  (* val := val + 1 *)
          };
      ]
  else
    Core.Transaction.make ~profile:(read_profile tx_type)
      ~table_set:(single_table_set tx_type)
      [ Storage.Query.Get { table; key } ]

let workload p =
  { Core.Client.think_ms = Core.Client.no_think; next_request = request p }

let span_request p ~span rng =
  assert (span >= 1 && span <= p.tables);
  let tx_type = Util.Rng.int rng p.tables in
  if tx_type < p.update_types then
    let statements =
      List.init span (fun k ->
          let table = table_name ((tx_type + k) mod p.tables) in
          Storage.Query.Update_key
            {
              table;
              key = row_key (Util.Rng.int rng p.rows);
              set = incr_val;
            })
    in
    Core.Transaction.make ~profile:(upd_span_profile span tx_type) statements
  else
    Core.Transaction.make
      ~profile:(read_profile tx_type)
      ~table_set:(single_table_set tx_type)
      [
        Storage.Query.Get
          { table = table_name tx_type; key = row_key (Util.Rng.int rng p.rows) };
      ]

let span_workload p ~span =
  { Core.Client.think_ms = Core.Client.no_think; next_request = span_request p ~span }

let hot_request p ~hot_rows rng =
  let tx_type = Util.Rng.int rng p.tables in
  let table = table_name tx_type in
  if tx_type < p.update_types then
    Core.Transaction.make ~profile:(hot_upd_profile tx_type)
      ~table_set:(single_table_set tx_type)
      [
        Storage.Query.Update_key
          {
            table;
            key = row_key (Util.Rng.int rng (min hot_rows p.rows));
            set = incr_val;
          };
      ]
  else
    Core.Transaction.make ~profile:(read_profile tx_type)
      ~table_set:(single_table_set tx_type)
      [ Storage.Query.Get { table; key = row_key (Util.Rng.int rng p.rows) } ]

let hot_workload p ~hot_rows =
  { Core.Client.think_ms = Core.Client.no_think; next_request = hot_request p ~hot_rows }

(* --- Mixed-consistency read tiers (docs/CONSISTENCY.md) -------------- *)

type tier_mix = {
  bounded : float;
  causal : float;
  eventual : float;
}

let default_mix = { bounded = 0.25; causal = 0.25; eventual = 0.25 }

let tiered_request p ~mix ~bounded_tier rng =
  assert (p.update_types >= 0 && p.update_types <= p.tables);
  assert (mix.bounded +. mix.causal +. mix.eventual <= 1.0 +. 1e-9);
  let tx_type = Util.Rng.int rng p.tables in
  let table = table_name tx_type in
  let key = row_key (Util.Rng.int rng p.rows) in
  if tx_type < p.update_types then
    (* Updates always run under the cluster's write mode. *)
    Core.Transaction.make ~profile:(upd_profile tx_type)
      ~table_set:(single_table_set tx_type)
      [
        Storage.Query.Update_key
          { table; key; set = incr_val };
      ]
  else begin
    let u = Util.Rng.float rng 1.0 in
    let tier =
      if u < mix.bounded then bounded_tier
      else if u < mix.bounded +. mix.causal then Core.Consistency.Causal
      else if u < mix.bounded +. mix.causal +. mix.eventual then Core.Consistency.Eventual
      else Core.Consistency.Strong
    in
    Core.Transaction.make ~tier
      ~profile:(tiered_read_profile tier tx_type)
      ~table_set:(single_table_set tx_type)
      [ Storage.Query.Get { table; key } ]
  end

let tiered_workload ?(mix = default_mix)
    ?(bounded_tier = Core.Consistency.Bounded_staleness { versions = Some 8; ms = None }) p
    =
  {
    Core.Client.think_ms = Core.Client.no_think;
    next_request = tiered_request p ~mix ~bounded_tier;
  }
