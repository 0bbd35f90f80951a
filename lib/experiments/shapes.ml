type verdict = Ok | Miss | Fail

type check = { name : string; paper : string; measured : string; verdict : verdict }

(* Figure 7's check covers each mix whose eager rise from 4 to 8
   replicas held at seeds 1, 2 and 42 when the gate was set: at quick
   size the ordering mix (shopping falls at seeds 1 and 2); at full size
   neither (shopping falls at seed 2, ordering at seed 42), so the full
   gate runs no Figure 7 point. *)
let fig7_mixes ~quick = if quick then [ Workload.Tpcw.Ordering ] else []

let points ~quick ~seed =
  Runner.distinct
    (Fig3.points ~quick ~seed @ Fig4.points ~quick ~seed
    @ List.filter
        (fun p -> List.mem (Fig5.mix_of p) (fig7_mixes ~quick))
        (Fig7.points ~quick ~seed))

let lazy_modes = Core.Consistency.[ Coarse; Fine; Session ]

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let times x = Printf.sprintf "%.1fx" x

(* A claim that holds at [value >= ok]. [fail] is where the shape itself
   is lost (a direction flip); a value between the two is a magnitude
   miss. A claim without a documented deviation has [fail = ok], so any
   miss fails. *)
let at_least ~name ~paper ~show ~ok ?(fail = ok) value =
  let verdict = if value >= ok then Ok else if value > fail then Miss else Fail in
  { name; paper; measured = show value; verdict }

(* The same, for a claim that holds at [value <= ok]. *)
let at_most ~name ~paper ~show ~ok ?(fail = ok) value =
  let verdict = if value <= ok then Ok else if value < fail then Miss else Fail in
  { name; paper; measured = show value; verdict }

(* (max - min) / max over the values. *)
let spread values =
  let hi = List.fold_left Float.max neg_infinity values
  and lo = List.fold_left Float.min infinity values in
  if hi <= 0.0 then 0.0 else (hi -. lo) /. hi

let micro pairs =
  List.filter
    (fun ((p : Runner.point), _) -> match p.workload with Micro _ -> true | _ -> false)
    pairs

let tpcw pairs =
  List.filter
    (fun ((p : Runner.point), _) -> match p.workload with Tpcw _ -> true | _ -> false)
    pairs

let update_pct u =
  float_of_int (u * 100) /. float_of_int Workload.Microbench.default.Workload.Microbench.tables

(* Figure 3: throughput against the update ratio. *)
let fig3 pairs =
  let tps u mode =
    (Runner.lookup pairs (fun p -> p.mode = mode && Runner.update_types p = u)).Runner.tps
  in
  List.concat_map
    (fun u ->
      if u = 0 then
        [
          at_most ~name:"fig3 0% updates: TPS spread, all modes" ~paper:"equal (<= 5%)"
            ~show:pct ~ok:0.05
            (spread (List.map (tps 0) Core.Consistency.all));
        ]
      else
        let lazy_tps = List.map (tps u) lazy_modes in
        let pct_u = update_pct u in
        at_most
          ~name:(Printf.sprintf "fig3 %g%% updates: TPS spread, lazy modes" pct_u)
          ~paper:"within ~5% (<= 5%)" ~show:pct ~ok:0.05 ~fail:0.15 (spread lazy_tps)
        ::
        (if pct_u >= 25.0 then
           [
             at_least
               ~name:(Printf.sprintf "fig3 %g%% updates: eager below slowest lazy" pct_u)
               ~paper:"~40% below (>= 30%)" ~show:pct ~ok:0.30 ~fail:0.0
               (1.0 -. (tps u Core.Consistency.Eager /. List.fold_left Float.min infinity lazy_tps));
           ]
         else []))
    (Runner.distinct (List.map (fun (p, _) -> Runner.update_types p) pairs))

(* Figure 4: the stage breakdown at 25% and 100% updates. *)
let fig4 pairs =
  let version = Core.Metrics.stage_index Core.Metrics.Version
  and global = Core.Metrics.stage_index Core.Metrics.Global in
  List.concat_map
    (fun u ->
      let summary mode = Runner.lookup pairs (fun p -> p.mode = mode && Runner.update_types p = u) in
      let start mode = (summary mode).Runner.stage_ms.(version) in
      let pct_u = update_pct u in
      [
        at_most
          ~name:(Printf.sprintf "fig4 %g%% updates: fine start - coarse start" pct_u)
          ~paper:"fine <= coarse (<= 0 ms)"
          ~show:(Printf.sprintf "%+.2f ms") ~ok:0.0
          (start Core.Consistency.Fine -. start Core.Consistency.Coarse);
        at_least
          ~name:(Printf.sprintf "fig4 %g%% updates: eager global / lazy start" pct_u)
          ~paper:"order of magnitude (>= 10x)" ~show:times ~ok:10.0 ~fail:1.0
          ((summary Core.Consistency.Eager).Runner.stage_update_ms.(global)
          /. List.fold_left Float.max 0.0 (List.map start lazy_modes));
      ])
    (List.filter
       (fun u -> List.mem (update_pct u) [ 25.0; 100.0 ])
       (Runner.distinct (List.map (fun (p, _) -> Runner.update_types p) pairs)))

(* Figure 7: eager's response time under fixed load, 4 against 8
   replicas. *)
let fig7 pairs =
  List.map
    (fun mix ->
      let response n =
        (Runner.lookup pairs (fun p ->
             p.mode = Core.Consistency.Eager && p.replicas = n && Fig5.mix_of p = mix))
          .Runner.response_ms
      in
      let r4 = response 4 and r8 = response 8 in
      {
        name = Printf.sprintf "fig7 %s: eager response, 4 -> 8 replicas" (Workload.Tpcw.mix_name mix);
        paper = "rises";
        measured = Printf.sprintf "%s -> %s ms" (Report.fmt_f r4) (Report.fmt_f r8);
        verdict = (if r8 > r4 then Ok else Fail);
      })
    (Runner.distinct (List.map (fun (p, _) -> Fig5.mix_of p) pairs))

let evaluate pairs = fig3 (micro pairs) @ fig4 (micro pairs) @ fig7 (tpcw pairs)

let failed checks = List.exists (fun c -> c.verdict = Fail) checks

let verdict_name = function Ok -> "ok" | Miss -> "MISS" | Fail -> "FAIL"

let render checks =
  let count v = List.length (List.filter (fun c -> c.verdict = v) checks) in
  Report.section "Paper shapes: the claims of PAPER.md section V"
  ^ "\n"
  ^ Report.table
      ~header:[ "check"; "paper"; "measured"; "verdict" ]
      (List.map (fun c -> [ c.name; c.paper; c.measured; verdict_name c.verdict ]) checks)
  ^ Printf.sprintf
      "\n%d ok, %d MISS (known deviations, EXPERIMENTS.md), %d FAIL\n"
      (count Ok) (count Miss) (count Fail)
