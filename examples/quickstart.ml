(* Quickstart: build a 3-replica cluster with lazy coarse-grained strong
   consistency, run a few transactions, and inspect the results.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Define a schema. *)
  let inventory =
    Storage.Schema.make ~name:"inventory"
      ~columns:
        [ ("sku", Storage.Value.Tint); ("name", Storage.Value.Ttext);
          ("stock", Storage.Value.Tint) ]
      ~key:[ "sku" ] ()
  in
  (* 2. Create the replicated cluster: the [load] callback populates the
        initial database once, and every replica starts from a copy. *)
  let config =
    { Core.Config.default with replicas = 3; gc_interval_ms = 0.0; hiccup_interval_ms = 0.0 }
  in
  let cluster =
    Core.Cluster.create ~config ~tracing:true ~mode:Core.Consistency.Coarse
      ~schemas:[ inventory ]
      ~load:(fun db ->
        Storage.Database.load db "inventory"
          [
            [| Storage.Value.Int 1; Storage.Value.Text "widget"; Storage.Value.Int 10 |];
            [| Storage.Value.Int 2; Storage.Value.Text "gadget"; Storage.Value.Int 5 |];
          ])
      ()
  in
  let engine = Core.Cluster.engine cluster in
  (* 3. Transactions are lists of prepared statements. This one sells two
        widgets. *)
  let sell sku qty =
    Core.Transaction.make ~profile:"sell"
      [
        Storage.Query.Update_key
          {
            table = "inventory";
            key = [| Storage.Value.Int sku |];
            set = [ ("stock", Storage.Expr.(Col 2 - i qty)) ];
          };
      ]
  in
  let check_stock sku =
    Core.Transaction.make ~profile:"check"
      [ Storage.Query.Get { table = "inventory"; key = [| Storage.Value.Int sku |] } ]
  in
  (* 4. Submit transactions from a simulated client process. *)
  Sim.Process.spawn engine (fun () ->
      (match Core.Cluster.submit cluster ~sid:1 (sell 1 2) with
      | Core.Transaction.Committed { commit_version; response_ms; _ } ->
        Printf.printf "sale committed at version %s in %.2f ms\n"
          (match commit_version with Some v -> string_of_int v | None -> "?")
          response_ms
      | Core.Transaction.Aborted { reason; _ } ->
        Format.printf "sale aborted: %a@." Core.Transaction.pp_abort_reason reason);
      (* Strong consistency: this read — from a different session, on
         whatever replica the balancer picks — must see the sale. *)
      match Core.Cluster.submit cluster ~sid:2 (check_stock 1) with
      | Core.Transaction.Committed { snapshot; response_ms; _ } ->
        Printf.printf "read ran at snapshot v%d in %.2f ms\n" snapshot response_ms
      | Core.Transaction.Aborted _ -> print_endline "read aborted");
  (* 5. Run the simulation to completion. *)
  Sim.Engine.run engine;
  (* 6. Every replica converged to the same state. *)
  for i = 0 to 2 do
    let db = Core.Replica.database (Core.Cluster.replica cluster i) in
    match
      Storage.Table.read
        (Storage.Database.table db "inventory")
        ~key:[| Storage.Value.Int 1 |]
        ~at:(Storage.Database.version db)
    with
    | Some row ->
      Printf.printf "replica %d: widget stock = %d (v_local = %d)\n" i
        (Storage.Value.as_int row.(2))
        (Storage.Database.version db)
    | None -> Printf.printf "replica %d: row missing!\n" i
  done;
  (* 7. The cluster was created with [~tracing:true], so every stage of
        both transactions (and the refresh applies on the other replicas)
        left a span. Dump them, then export Chrome trace-event JSON —
        load quickstart_trace.json in chrome://tracing or
        ui.perfetto.dev to see the timeline. *)
  match Core.Cluster.trace cluster with
  | None -> ()
  | Some trace ->
    Format.printf "@.trace (%d spans):@.%a@." (Obs.Trace.length trace)
      Obs.Export.pp_text trace;
    Obs.Export.write_chrome_trace trace ~file:"quickstart_trace.json";
    print_endline "wrote quickstart_trace.json"
