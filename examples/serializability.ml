(* Static serializability analysis under snapshot isolation.

   The paper provides GSI, which is weaker than serializability, and
   notes (§IV) that conditions exist to check whether a workload runs
   serializably under it — citing the dangerous-structure theory of
   Fekete et al. This example runs that analysis on four workloads and
   exits 1 if a verdict differs from the one its comment states.

   Run with: dune exec examples/serializability.exe *)

(* Workloads whose verdict differs from the expected one. *)
let unexpected = ref []

let report name ~serializable profiles =
  Printf.printf "%-28s " name;
  let ds = Check.Si_analysis.dangerous_structures profiles in
  (match ds with
  | [] -> print_endline "serializable under SI/GSI"
  | ds ->
    Printf.printf "NOT serializable: %d dangerous structure(s)\n" (List.length ds);
    List.iter
      (fun d -> Format.printf "    %a@." Check.Si_analysis.pp_dangerous d)
      ds);
  if (ds = []) <> serializable then unexpected := name :: !unexpected

let () =
  print_endline "Dangerous-structure analysis (Fekete et al.) of workload profiles:\n";

  (* 1. The paper's micro-benchmark: point reads and single-row blind
        updates per table. Safe: concurrent updates of the same row
        write-write conflict, so no vulnerable rw path exists. *)
  let micro =
    List.concat_map
      (fun t ->
        let item = Printf.sprintf "t%02d.val" t in
        [
          Check.Si_analysis.profile ~name:(Printf.sprintf "read_t%02d" t) ~reads:[ item ] ();
          Check.Si_analysis.profile ~name:(Printf.sprintf "upd_t%02d" t) ~writes:[ item ] ();
        ])
      [ 0; 1; 2 ]
  in
  report "micro-benchmark" ~serializable:true micro;

  (* 2. Classic write skew (the paper's H3): each transaction reads both
        items and writes one. *)
  let write_skew =
    [
      Check.Si_analysis.profile ~name:"T1" ~reads:[ "X"; "Y" ] ~writes:[ "X" ] ();
      Check.Si_analysis.profile ~name:"T2" ~reads:[ "X"; "Y" ] ~writes:[ "Y" ] ();
    ]
  in
  report "write skew (H3 shape)" ~serializable:false write_skew;

  (* 3. A TPC-W-like core at item granularity: cart updates, buy-confirm
        (reads cart, writes order + stock), best-sellers (read-only over
        order lines + items). *)
  let tpcw_core =
    [
      Check.Si_analysis.profile ~name:"shopping_cart"
        ~reads:[ "item.price" ]
        ~writes:[ "cart.line" ] ();
      Check.Si_analysis.profile ~name:"buy_confirm"
        ~reads:[ "cart.line"; "item.stock" ]
        ~writes:[ "order.line"; "item.stock"; "cart.line" ] ();
      Check.Si_analysis.profile ~name:"best_sellers"
        ~reads:[ "order.line"; "item.price" ] ();
      Check.Si_analysis.profile ~name:"product_detail" ~reads:[ "item.price" ] ();
    ]
  in
  report "TPC-W core (item-level)" ~serializable:true tpcw_core;

  (* 4. The full TPC-C profile set from the workload library — the classic
        "TPC-C runs serializably under SI" result. *)
  report "TPC-C (workload profiles)" ~serializable:true Workload.Tpcc.profiles;

  print_endline
    "\nA workload with no dangerous structure runs serializably under GSI, so the\n\
     strong-consistency configurations of this system then provide exactly the\n\
     semantics of a serializable centralized database.";
  match !unexpected with
  | [] -> ()
  | names ->
    Printf.printf "\nunexpected verdict: %s\n" (String.concat ", " (List.rev names));
    exit 1
