let default_params = { Workload.Microbench.tables = 8; rows = 200; update_types = 4 }

let default_bounds = [ 0; 1; 2; 4; 8; 16; 32 ]

let points ?config ?(params = default_params) ?(clients = 24) ?(bounds = default_bounds)
    ?(seed = 42) ?(warmup_ms = 1_000.0) ?(measure_ms = 4_000.0) () =
  let config =
    match config with
    | Some c -> { c with Core.Config.seed; read_tiers = true; record_log = true }
    | None ->
      {
        Core.Config.default with
        Core.Config.seed;
        replicas = 4;
        read_tiers = true;
        record_log = true;
        (* Uniform replicas (no hiccup windows): with one replica
           periodically slowed, bounded reads filter it out by its lag
           and dodge its slow statements too, beating even eventual
           reads — a real effect, but it hides the pure cost of the
           floor wait the frontier is meant to show. Instead, apply is
           priced high enough that every replica runs a few versions
           behind the certifier, so each tier pays exactly its floor. *)
        hiccup_interval_ms = 0.0;
        ws_apply_base_ms = 0.1;
        ws_apply_row_ms = 0.04;
      }
  in
  List.map
    (fun bound ->
      let tier = Core.Consistency.Bounded_staleness { versions = Some bound; ms = None } in
      {
        Runner.mode = Core.Consistency.Coarse;
        workload = Runner.Tiered (params, Some tier);
        replicas = config.Core.Config.replicas;
        clients;
        warmup_ms;
        measure_ms;
        seed;
        config;
        arrival = Runner.Closed;
        faults = None;
        drain = false;
      })
    bounds

let bound (p : Runner.point) =
  match p.workload with
  | Runner.Tiered (_, Some (Core.Consistency.Bounded_staleness { versions = Some k; _ })) -> k
  | _ -> invalid_arg "Tiers.bound: not a frontier point"

let row_of (s : Runner.summary) slug =
  List.find_opt (fun (r : Runner.tier_row) -> r.slug = slug) s.tiers

(* The headline claim: weaker tier, faster read. Compared on mean read
   response at equal load within one run. *)
let ordered s =
  let m slug = match row_of s slug with Some r -> r.mean_ms | None -> 0.0 in
  m "eventual" < m "bounded" && m "bounded" < m "causal" && m "causal" < m "strong"

let total_violations s = List.fold_left (fun acc (_, n) -> acc + n) 0 (Runner.battery s)

let ok pairs =
  List.for_all (fun (_, s) -> total_violations s = 0) pairs
  (* The ordering claim needs a bound loose enough that bounded reads
     actually skip the version wait; tight bounds (k=0,1) legitimately
     price like strong reads. *)
  && List.exists (fun (p, s) -> bound p >= 8 && ordered s) pairs

let render pairs =
  let header =
    "max_lag k"
    :: List.concat_map
         (fun slug -> [ slug ^ " ms"; slug ^ " p99" ])
         Core.Consistency.all_tier_slugs
    @ [ "bounded lag"; "eventual lag"; "TPS"; "ordered"; "viol" ]
  in
  let cell s slug f = match row_of s slug with Some r -> Report.fmt_f (f r) | None -> "-" in
  let rows =
    List.map
      (fun (p, (s : Runner.summary)) ->
        (string_of_int (bound p)
         :: List.concat_map
              (fun slug ->
                [ cell s slug (fun r -> r.mean_ms); cell s slug (fun r -> r.tier_p99_ms) ])
              Core.Consistency.all_tier_slugs)
        @ [
            cell s "bounded" (fun r -> r.mean_staleness);
            cell s "eventual" (fun r -> r.mean_staleness);
            Report.fmt_f s.tps;
            (if ordered s then "yes" else "no");
            string_of_int (total_violations s);
          ])
      pairs
  in
  let series =
    List.map
      (fun slug ->
        ( slug,
          List.filter_map
            (fun (p, s) ->
              Option.map
                (fun (r : Runner.tier_row) -> (float_of_int (bound p), r.mean_ms))
                (row_of s slug))
            pairs ))
      Core.Consistency.all_tier_slugs
  in
  Report.section
    "Read-tier frontier: read latency and served staleness vs declared max_lag"
  ^ "\n" ^ Report.table ~header rows ^ "\n"
  ^ Plot.chart ~series ~y_label:"read ms" ~x_label:"bounded-staleness max_lag (versions)"
      ()
