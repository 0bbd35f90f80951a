(* The paper's motivating example (§I): Agent A executes a trade on
   behalf of Agent B and notifies B through a hidden channel (outside the
   database). B then queries the database — possibly hitting a different
   replica — and must observe the trade.

   Under session consistency, B (a different session!) can read stale
   data. Under the lazy coarse-grained configuration, strong consistency
   holds and B always sees A's committed trade.

   Run with: dune exec examples/hidden_channel.exe
   It exits 1 if a strong configuration (coarse, fine or eager) lets B
   read stale data. *)

let trades_schema =
  Storage.Schema.make ~name:"trades"
    ~columns:
      [ ("account", Storage.Value.Tint); ("shares", Storage.Value.Tint) ]
    ~key:[ "account" ] ()

let config =
  {
    Core.Config.default with
    replicas = 4;
    seed = 2026;
    gc_interval_ms = 0.0;
    (* Frequent transient replica slowdowns and a costly refresh apply
       make the replicas visibly lag, so the race window of lazy
       propagation is easy to hit. The apply stays below ~1 ms: at 2 ms
       the slowed replicas fall ever further behind the certifier and a
       round can wait tens of virtual seconds for one to catch up. *)
    hiccup_interval_ms = 250.0;
    ws_apply_base_ms = 0.5;
  }

(* One round: Agent A (session 1) buys shares, then — through the hidden
   channel, i.e. plain control flow here — Agent B (session 2) reads the
   account. Returns whether B saw the trade. *)
let round cluster account =
  let buy =
    Core.Transaction.make ~profile:"buy"
      [
        Storage.Query.Update_key
          {
            table = "trades";
            key = [| Storage.Value.Int account |];
            set = [ ("shares", Storage.Expr.(Col 1 + i 100)) ];
          };
      ]
  in
  let audit =
    Core.Transaction.make ~profile:"audit"
      [ Storage.Query.Get { table = "trades"; key = [| Storage.Value.Int account |] } ]
  in
  match Core.Cluster.submit cluster ~sid:1 buy with
  | Core.Transaction.Aborted _ -> None
  | Core.Transaction.Committed { commit_version = Some v; _ } -> (
    (* Hidden channel: B learns out-of-band that the trade committed. *)
    match Core.Cluster.submit cluster ~sid:2 audit with
    | Core.Transaction.Committed { snapshot; _ } -> Some (snapshot >= v)
    | Core.Transaction.Aborted _ -> None)
  | Core.Transaction.Committed { commit_version = None; _ } -> None

let run_mode mode =
  let cluster =
    Core.Cluster.create ~config ~mode ~schemas:[ trades_schema ]
      ~load:(fun db ->
        Storage.Database.load db "trades"
          (List.init 100 (fun i -> [| Storage.Value.Int i; Storage.Value.Int 0 |])))
      ()
  in
  let engine = Core.Cluster.engine cluster in
  (* Background traffic keeps the replicas busy, widening replica lag. *)
  Core.Client.spawn_many cluster ~n:40 ~first_sid:100
    {
      Core.Client.think_ms = Core.Client.no_think;
      next_request =
        (fun rng ->
          let account = Util.Rng.int rng 100 in
          Core.Transaction.make ~profile:"noise"
            [
              Storage.Query.Update_key
                {
                  table = "trades";
                  key = [| Storage.Value.Int account |];
                  set = [ ("shares", Storage.Expr.(Col 1 + i 1)) ];
                };
            ]);
    };
  let fresh = ref 0 and stale = ref 0 and finished = ref false in
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine 100.0;
      for round_ = 0 to 999 do
        let account = round_ mod 100 in
        match round cluster account with
        | Some true -> incr fresh
        | Some false -> incr stale
        | None -> ()
      done;
      finished := true);
  (* The background clients never stop, so run the engine one virtual
     second at a time until the rounds are done. *)
  while not !finished do
    Sim.Engine.run engine ~until:(Sim.Engine.now engine +. 1_000.0)
  done;
  (!fresh, !stale)

let () =
  print_endline "Agent A trades, notifies Agent B out-of-band; B audits the account.";
  print_endline "Did B observe A's committed trade?\n";
  let strong_stale =
    List.fold_left
      (fun acc mode ->
        let fresh, stale = run_mode mode in
        Printf.printf "%-8s consistency: %4d fresh reads, %4d stale reads%s\n%!"
          (Core.Consistency.to_string mode)
          fresh stale
          (if stale > 0 then "   <-- B acted on stale data!" else "");
        if mode = Core.Consistency.Session then acc else acc + stale)
      0
      [ Core.Consistency.Session; Core.Consistency.Coarse; Core.Consistency.Fine;
        Core.Consistency.Eager ]
  in
  if strong_stale > 0 then begin
    Printf.printf "\nFAIL: a strong configuration served %d stale reads\n" strong_stale;
    exit 1
  end
