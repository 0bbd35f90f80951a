(* The [Check.Runlog] checkers as their all-pairs definitions: plain
   quadratic loops, the differential oracle for the library's sweeps
   (test_check.ml). Each library checker must return the same
   violations, in the same order, with the same reasons. *)

open Check.Runlog

(* All pairs (ti, tj) such that ti's ack precedes tj's begin. *)
let precedence_pairs records ~relevant ~check =
  let by_begin = List.sort (fun a b -> compare a.begin_time b.begin_time) records in
  let arr = Array.of_list by_begin in
  let violations = ref [] in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    let ti = arr.(i) in
    match ti.commit_version with
    | None -> ()
    | Some vi ->
      for j = 0 to n - 1 do
        let tj = arr.(j) in
        if ti.tid <> tj.tid && ti.ack_time < tj.begin_time && relevant ti tj then
          match check vi ti tj with
          | None -> ()
          | Some reason -> violations := { first = ti; second = tj; reason } :: !violations
      done
  done;
  List.rev !violations

(* The mode guarantees below constrain transactions that asked for the
   mode's class: a record served under a weaker read tier is judged by
   its own tier checker instead, so [tj] is restricted to Strong. (Tier
   records never act as [ti]: they are read-only, hence uncommitted.) *)

let strong_consistency records =
  precedence_pairs records
    ~relevant:(fun _ tj -> tj.tier = Strong)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "T%d (commit v%d, acked %.3f) invisible to T%d (begin %.3f, snapshot v%d)"
             ti.tid vi ti.ack_time tj.tid tj.begin_time tj.snapshot_version))

let fine_strong_consistency records =
  let intersects a b = List.exists (fun x -> List.mem x b) a in
  precedence_pairs records
    ~relevant:(fun ti tj -> tj.tier = Strong && intersects ti.tables_written tj.table_set)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "T%d wrote tables in T%d's table-set at v%d but T%d read snapshot v%d" ti.tid
             tj.tid vi tj.tid tj.snapshot_version))

let session_consistency records =
  precedence_pairs records
    ~relevant:(fun ti tj -> tj.tier = Strong && ti.session = tj.session)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "session %d: T%d committed v%d before T%d began, but T%d read snapshot v%d"
             ti.session ti.tid vi tj.tid tj.tid tj.snapshot_version))

let first_committer_wins records =
  let updates =
    List.filter_map
      (fun r -> match r.commit_version with Some v -> Some (r, v) | None -> None)
      records
  in
  let conflict a b = List.exists (fun k -> List.mem k b.write_keys) a.write_keys in
  let rec pairs acc = function
    | [] -> List.rev acc
    | (ri, vi) :: rest ->
      let acc =
        List.fold_left
          (fun acc (rj, vj) ->
            (* Windows (snapshot, commit] overlap iff each commit falls
               after the other's snapshot. *)
            let overlap = vi > rj.snapshot_version && vj > ri.snapshot_version in
            if overlap && conflict ri rj then
              {
                first = ri;
                second = rj;
                reason =
                  Printf.sprintf
                    "write-write conflict between concurrent T%d (v%d..%d] and T%d (v%d..%d]"
                    ri.tid ri.snapshot_version vi rj.tid rj.snapshot_version vj;
              }
              :: acc
            else acc)
          acc rest
      in
      pairs acc rest
  in
  pairs [] updates

let bounded_staleness ~k records =
  precedence_pairs records
    ~relevant:(fun _ tj -> tj.tier = Strong)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi - k then None
      else
        Some
          (Printf.sprintf
             "T%d read snapshot v%d, more than %d versions behind T%d's commit v%d"
             tj.tid tj.snapshot_version k ti.tid vi))

(* LB floor preservation: a takeover must not lose the guarantees the
   deposed balancer had already handed out. If Ti's commit was acked to
   its session and a later Causal read Tj of the same session was served
   by a newer LB epoch, Tj still sees Ti's commit — the successor
   reconstructed a conservative floor covering every previously
   acknowledged version. Causal is the one tier whose read-your-writes
   contract holds in every mode; Strong reads across a takeover are
   already constrained by the per-mode checkers above, whose precedence
   pairs do not exempt cross-epoch pairs. *)
let lb_floor_preservation records =
  precedence_pairs records
    ~relevant:(fun ti tj ->
      tj.lb_epoch > ti.lb_epoch && ti.session = tj.session && tj.tier = Causal)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "LB takeover dropped a floor: session %d had v%d acked (T%d, LB epoch \
              %d) but T%d read snapshot v%d after takeover (LB epoch %d)"
             ti.session vi ti.tid ti.lb_epoch tj.tid tj.snapshot_version tj.lb_epoch))

(* --- Read-tier contracts (docs/CONSISTENCY.md) ----------------------- *)

(* Bounded staleness, per record: a read declaring [versions = Some k]
   must see every commit acked before it began except the k freshest;
   one declaring [ms = Some m] must see every commit acked at least m
   virtual ms before it began. Unlike the mode-level [bounded_staleness],
   the bound comes from the record itself. *)
let tier_bounded_staleness records =
  precedence_pairs records
    ~relevant:(fun _ tj -> match tj.tier with Bounded _ -> true | _ -> false)
    ~check:(fun vi ti tj ->
      match tj.tier with
      | Bounded { versions; ms } ->
        let stale_v =
          match versions with Some k -> tj.snapshot_version < vi - k | None -> false
        in
        let stale_ms =
          match ms with
          | Some m -> ti.ack_time <= tj.begin_time -. m && tj.snapshot_version < vi
          | None -> false
        in
        if stale_v || stale_ms then
          Some
            (Printf.sprintf
               "bounded read T%d (%s) saw snapshot v%d, violating its bound against \
                T%d's commit v%d (acked %.3f, read began %.3f)"
               tj.tid (tier_string tj.tier) tj.snapshot_version ti.tid vi ti.ack_time
               tj.begin_time)
        else None
      | _ -> None)

(* Causal = read-your-writes: a causal read sees every commit its own
   session was already acknowledged for. *)
let tier_causal_ryw records =
  precedence_pairs records
    ~relevant:(fun ti tj -> tj.tier = Causal && ti.session = tj.session)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "causal read T%d missed its own session's write: session %d committed \
              v%d (T%d) before the read began, but it saw snapshot v%d"
             tj.tid tj.session vi ti.tid tj.snapshot_version))

(* Within a session, every pair (a, b) with a before b in begin order,
   a acked before b began, and b a [tier] read of an older snapshot. *)
let session_regressions records ~tier ~reason =
  let by_session = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let l = Option.value (Hashtbl.find_opt by_session r.session) ~default:[] in
      Hashtbl.replace by_session r.session (r :: l))
    records;
  let violations = ref [] in
  Hashtbl.iter
    (fun _ rs ->
      let ordered = List.sort (fun a b -> compare a.begin_time b.begin_time) rs in
      let rec walk = function
        | a :: (_ :: _ as rest) ->
          List.iter
            (fun b ->
              if
                b.tier = tier && a.ack_time < b.begin_time
                && b.snapshot_version < a.snapshot_version
              then violations := { first = a; second = b; reason = reason a b } :: !violations)
            rest;
          walk rest
        | [ _ ] | [] -> ()
      in
      walk ordered)
    by_session;
  List.rev !violations

let monotone_session_snapshots records =
  session_regressions records ~tier:Strong ~reason:(fun a b ->
      Printf.sprintf "session snapshot went back in time: v%d then v%d" a.snapshot_version
        b.snapshot_version)

let tier_monotone_reads records =
  session_regressions records ~tier:Causal ~reason:(fun a b ->
      Printf.sprintf
        "causal read T%d went back in time: session %d had observed v%d (T%d), then \
         read snapshot v%d"
        b.tid b.session a.snapshot_version a.tid b.snapshot_version)
