(* Mirror of Core.Consistency.read_tier, restated here so the checker
   library stays decoupled from the protocol implementation it judges. *)
type tier =
  | Strong
  | Bounded of {
      versions : int option;
      ms : float option;
    }
  | Causal
  | Eventual

let tier_string = function
  | Strong -> "strong"
  | Bounded { versions; ms } ->
    let v = match versions with Some k -> Printf.sprintf "v%d" k | None -> "" in
    let m = match ms with Some x -> Printf.sprintf "m%h" x | None -> "" in
    "bounded:" ^ v ^ m
  | Causal -> "causal"
  | Eventual -> "eventual"

type record = {
  tid : int;
  session : int;
  begin_time : float;
  ack_time : float;
  snapshot_version : int;
  commit_version : int option;
  epoch : int;  (* certifier epoch that released the decision *)
  lb_epoch : int;  (* LB routing epoch that served the request; 0 until a takeover *)
  tier : tier;  (* read class served; Strong for updates *)
  table_set : string list;
  tables_written : string list;
  write_keys : (string * string) list;
  trace : int option;
}

type violation = {
  first : record;
  second : record;
  reason : string;
}

(* Violations cite trace ids when the run was traced, so a checker hit
   can be looked up directly among the exported spans. *)
let pp_tid ppf r =
  match r.trace with
  | None -> Format.fprintf ppf "T%d" r.tid
  | Some trace -> Format.fprintf ppf "T%d(trace %d)" r.tid trace

let pp_violation ppf v =
  Format.fprintf ppf "%a[%.3f..%.3f e%d L%d] -> %a[%.3f..%.3f e%d L%d]: %s" pp_tid
    v.first v.first.begin_time v.first.ack_time v.first.epoch v.first.lb_epoch pp_tid
    v.second v.second.begin_time v.second.ack_time v.second.epoch v.second.lb_epoch
    v.reason

(* A stable sort, so records that began together keep their log order. *)
let by_begin records =
  let arr = Array.of_list records in
  Array.stable_sort (fun a b -> Float.compare a.begin_time b.begin_time) arr;
  arr

(* Which running maxima a precedence sweep keeps: one over every source
   ([Global]), one per session ([Session]), or one per written table,
   which a subject probes through its table-set ([Tables]). *)
type scope =
  | Global
  | Session
  | Tables

(* Dense slots for [scope]'s groups, as [(count, folds, probes)]:
   [folds r f] applies [f] to each slot a source [r] folds into, and
   [probes r f] to each slot a subject [r] reads. *)
let group_slots scope arr =
  match scope with
  | Global ->
    let one _ f = f 0 in
    (1, one, one)
  | Session ->
    let ids = Hashtbl.create 64 in
    Array.iter
      (fun r ->
        if not (Hashtbl.mem ids r.session) then Hashtbl.add ids r.session (Hashtbl.length ids))
      arr;
    let own r f = f (Hashtbl.find ids r.session) in
    (Hashtbl.length ids, own, own)
  | Tables ->
    let ids = Hashtbl.create 16 in
    Array.iter
      (fun r ->
        List.iter
          (fun t -> if not (Hashtbl.mem ids t) then Hashtbl.add ids t (Hashtbl.length ids))
          r.tables_written)
      arr;
    let written r f = List.iter (fun t -> f (Hashtbl.find ids t)) r.tables_written in
    let probed r f =
      List.iter
        (fun t -> match Hashtbl.find ids t with s -> f s | exception Not_found -> ())
        r.table_set
    in
    (Hashtbl.length ids, written, probed)

(* Every pair (ti, tj) of [arr] (sorted by begin time) such that [value
   ti = Some vi], ti was acked before tj began, [relevant i j] and
   [check vi ti tj] gives a reason, in (i, j) order.

   A violating pair needs vi > tj.snapshot_version + s, where [slack tj
   = Some s] ([None]: no pair constrains tj). One sweep finds the
   suspects: tj walks in begin order while a cursor over the sources in
   ack order folds each vi acked before tj began into the running
   maximum of its [scope] groups, and tj is a suspect only if a group it
   probes holds a maximum above its threshold. Only the suspects are
   re-scanned against every source, so a clean log costs O(n log n) and
   one with s suspects O(n·s). *)
let sweep arr ~scope ~value ~slack ~relevant ~check =
  (* The sources in ack order. A NaN ack precedes nothing; leaving it
     out keeps the cursor monotone. *)
  let is_source r = Option.is_some (value r) && not (Float.is_nan r.ack_time) in
  let src = Array.make (Array.fold_left (fun c r -> if is_source r then c + 1 else c) 0 arr) 0 in
  let sources = ref 0 in
  Array.iteri
    (fun i r ->
      if is_source r then begin
        src.(!sources) <- i;
        incr sources
      end)
    arr;
  Array.sort (fun a b -> Float.compare arr.(a).ack_time arr.(b).ack_time) src;
  let slots, folds, probes = group_slots scope arr in
  let best = Array.make slots min_int in
  let v = ref 0 and hi = ref min_int in
  let fold g = if !v > best.(g) then best.(g) <- !v in
  let probe g = if best.(g) > !hi then hi := best.(g) in
  let cursor = ref 0 and suspects = ref [] in
  Array.iteri
    (fun j tj ->
      match slack tj with
      | None -> ()
      | Some s ->
        while !cursor < Array.length src && arr.(src.(!cursor)).ack_time < tj.begin_time do
          let ti = arr.(src.(!cursor)) in
          v := Option.get (value ti);
          folds ti fold;
          incr cursor
        done;
        hi := min_int;
        probes tj probe;
        if !hi > tj.snapshot_version + s then suspects := j :: !suspects)
    arr;
  let suspects = Array.of_list (List.rev !suspects) in
  let violations = ref [] in
  Array.iteri
    (fun i ti ->
      match value ti with
      | None -> ()
      | Some vi ->
        Array.iter
          (fun j ->
            let tj = arr.(j) in
            if ti.ack_time < tj.begin_time && relevant i j then
              match check vi ti tj with
              | None -> ()
              | Some reason -> violations := { first = ti; second = tj; reason } :: !violations)
          suspects)
    arr;
  List.rev !violations

(* All pairs (ti, tj) of distinct transactions such that ti's commit was
   acked before tj began. *)
let precedence_pairs records ~scope ~slack ~relevant ~check =
  let arr = by_begin records in
  sweep arr ~scope ~slack ~check
    ~value:(fun r -> r.commit_version)
    ~relevant:(fun i j ->
      let ti = arr.(i) and tj = arr.(j) in
      ti.tid <> tj.tid && relevant ti tj)

(* Slack [k] for the records of [tier]; the others are never constrained. *)
let slack_for tier k tj = if tj.tier = tier then Some k else None

(* The mode guarantees below constrain transactions that asked for the
   mode's class: a record served under a weaker read tier is judged by
   its own tier checker instead, so [tj] is restricted to Strong. (Tier
   records never act as [ti]: they are read-only, hence uncommitted.) *)

let strong_consistency records =
  precedence_pairs records ~scope:Global ~slack:(slack_for Strong 0)
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
  precedence_pairs records ~scope:Tables ~slack:(slack_for Strong 0)
    ~relevant:(fun ti tj -> tj.tier = Strong && intersects ti.tables_written tj.table_set)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "T%d wrote tables in T%d's table-set at v%d but T%d read snapshot v%d" ti.tid
             tj.tid vi tj.tid tj.snapshot_version))

let session_consistency records =
  precedence_pairs records ~scope:Session ~slack:(slack_for Strong 0)
    ~relevant:(fun ti tj -> tj.tier = Strong && ti.session = tj.session)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "session %d: T%d committed v%d before T%d began, but T%d read snapshot v%d"
             ti.session ti.tid vi tj.tid tj.tid tj.snapshot_version))

let compare_key (t, k) (t', k') =
  match String.compare t t' with 0 -> String.compare k k' | c -> c

(* Only updates that share a written key can conflict. One entry per
   (update, key), grouped by key and ordered by commit version within a
   key: of an overlapping pair, the entry placed later sees the other
   among its left neighbours committed after its own snapshot, so each
   entry scans just those. A clean log has none: O(n log n). *)
let first_committer_wins records =
  let all = Array.of_list records in
  let commit i = Option.get all.(i).commit_version in
  let keys r = if r.commit_version = None then [] else r.write_keys in
  let entries = Array.fold_left (fun acc r -> acc + List.length (keys r)) 0 all in
  let owner = Array.make entries 0 and key = Array.make entries ("", "") in
  let e = ref 0 in
  Array.iteri
    (fun u r ->
      List.iter
        (fun k ->
          owner.(!e) <- u;
          key.(!e) <- k;
          incr e)
        (keys r))
    all;
  let order = Array.init entries Fun.id in
  Array.sort
    (fun a b ->
      match compare_key key.(a) key.(b) with
      | 0 -> Int.compare (commit owner.(a)) (commit owner.(b))
      | c -> c)
    order;
  let at p = owner.(order.(p)) in
  let candidates = ref [] in
  for p = 0 to entries - 1 do
    let b = at p and q = ref (p - 1) in
    while
      !q >= 0
      && compare_key key.(order.(!q)) key.(order.(p)) = 0
      && commit (at !q) > all.(b).snapshot_version
    do
      let a = at !q in
      if a <> b then candidates := (min a b, max a b) :: !candidates;
      decr q
    done
  done;
  List.filter_map
    (fun (i, j) ->
      let ri = all.(i) and vi = commit i and rj = all.(j) and vj = commit j in
      (* Windows (snapshot, commit] overlap iff each commit falls after
         the other's snapshot. *)
      if vi > rj.snapshot_version && vj > ri.snapshot_version then
        Some
          {
            first = ri;
            second = rj;
            reason =
              Printf.sprintf
                "write-write conflict between concurrent T%d (v%d..%d] and T%d (v%d..%d]"
                ri.tid ri.snapshot_version vi rj.tid rj.snapshot_version vj;
          }
      else None)
    (List.sort_uniq compare !candidates)

let bounded_staleness ~k records =
  precedence_pairs records ~scope:Global ~slack:(slack_for Strong k)
    ~relevant:(fun _ tj -> tj.tier = Strong)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi - k then None
      else
        Some
          (Printf.sprintf
             "T%d read snapshot v%d, more than %d versions behind T%d's commit v%d"
             tj.tid tj.snapshot_version k ti.tid vi))

(* Within each session, every pair (a, b) with a before b in begin
   order, a acked before b began, and b a [tier] read of an older
   snapshot than a's. Sessions come in [Hashtbl.iter] order. *)
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
      let arr = by_begin rs in
      let found =
        sweep arr ~scope:Global
          ~value:(fun a -> Some a.snapshot_version)
          ~slack:(slack_for tier 0)
          ~relevant:(fun i j -> i < j && arr.(j).tier = tier)
          ~check:(fun va a b -> if b.snapshot_version < va then Some (reason a b) else None)
      in
      violations := List.rev_append found !violations)
    by_session;
  List.rev !violations

(* A weaker-tier [b] is exempt here: eventual reads may go back in time,
   and causal ones are judged by [tier_monotone_reads]. *)
let monotone_session_snapshots records =
  session_regressions records ~tier:Strong ~reason:(fun a b ->
      Printf.sprintf "session snapshot went back in time: v%d then v%d" a.snapshot_version
        b.snapshot_version)

(* Epoch fencing: commit versions must be partitioned by epoch — for any
   two epochs e < e', every version committed under e lies strictly below
   every version committed under e'. A violation means a deposed
   primary's decision leaked past the fence (split brain): it released a
   version at or above the promotion point of an epoch that superseded
   it. *)
let epoch_fencing records =
  let updates =
    List.filter_map
      (fun r -> match r.commit_version with Some v -> Some (r, v) | None -> None)
      records
  in
  (* Representative extremes per epoch: highest committed version of the
     older epoch vs lowest of the newer. *)
  let by_epoch = Hashtbl.create 8 in
  List.iter
    (fun (r, v) ->
      match Hashtbl.find_opt by_epoch r.epoch with
      | None -> Hashtbl.add by_epoch r.epoch ((r, v), (r, v))
      | Some ((_, lo_v) as lo, ((_, hi_v) as hi)) ->
        let lo = if v < lo_v then (r, v) else lo in
        let hi = if v > hi_v then (r, v) else hi in
        Hashtbl.replace by_epoch r.epoch (lo, hi))
    updates;
  let epochs = Hashtbl.fold (fun e _ acc -> e :: acc) by_epoch [] |> List.sort compare in
  let rec walk acc = function
    | e :: (e' :: _ as rest) ->
      let _, (hi_r, hi_v) = Hashtbl.find by_epoch e in
      let (lo_r, lo_v), _ = Hashtbl.find by_epoch e' in
      let acc =
        if hi_v >= lo_v then
          {
            first = hi_r;
            second = lo_r;
            reason =
              Printf.sprintf
                "epoch fence breached: T%d committed v%d under epoch %d, but T%d \
                 committed v%d under later epoch %d"
                hi_r.tid hi_v e lo_r.tid lo_v e';
          }
          :: acc
        else acc
      in
      walk acc rest
    | [ _ ] | [] -> List.rev acc
  in
  walk [] epochs

(* Election safety: the certification log is a single history — no two
   committed transactions may occupy the same commit version. Two
   records sharing a version means two primaries each released their
   own decision for that slot (a divergent log entry), which is exactly
   what a non-quorum-intersecting election permits: a stale standby
   promotes without having acked the releases it now re-assigns. *)
let election_safety records =
  let updates =
    List.filter_map
      (fun r -> match r.commit_version with Some v -> Some (r, v) | None -> None)
      records
  in
  let by_version = Hashtbl.create 64 in
  let violations = ref [] in
  List.iter
    (fun (r, v) ->
      match Hashtbl.find_opt by_version v with
      | None -> Hashtbl.add by_version v r
      | Some prev ->
        violations :=
          {
            first = prev;
            second = r;
            reason =
              Printf.sprintf
                "divergent log entry: T%d (epoch %d) and T%d (epoch %d) both \
                 committed v%d"
                prev.tid prev.epoch r.tid r.epoch v;
          }
          :: !violations)
    updates;
  List.rev !violations

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
  precedence_pairs records ~scope:Session ~slack:(slack_for Causal 0)
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
  (* A [versions] bound alone trips only above snapshot + k; an [ms]
     bound trips above the snapshot itself. *)
  let slack tj =
    match tj.tier with
    | Bounded { versions = Some k; ms = None } -> Some k
    | Bounded { versions = Some k; ms = Some _ } -> Some (min 0 k)
    | Bounded { versions = None; _ } -> Some 0
    | Strong | Causal | Eventual -> None
  in
  precedence_pairs records ~scope:Global ~slack
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
  precedence_pairs records ~scope:Session ~slack:(slack_for Causal 0)
    ~relevant:(fun ti tj -> tj.tier = Causal && ti.session = tj.session)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "causal read T%d missed its own session's write: session %d committed \
              v%d (T%d) before the read began, but it saw snapshot v%d"
             tj.tid tj.session vi ti.tid tj.snapshot_version))

(* Causal = monotonic reads: within a session, a causal read never
   observes an older snapshot than any earlier acknowledged transaction
   of the same session (whatever tier that one ran under). *)
let tier_monotone_reads records =
  session_regressions records ~tier:Causal ~reason:(fun a b ->
      Printf.sprintf
        "causal read T%d went back in time: session %d had observed v%d (T%d), then \
         read snapshot v%d"
        b.tid b.session a.snapshot_version a.tid b.snapshot_version)

(* --- Flat record sink ------------------------------------------------ *)

(* A chaos soak commits hundreds of thousands of transactions per run;
   keeping each as a boxed [record] (two floats, four lists, two
   options) holds the whole window's worth of small heap objects live
   until the checker battery runs, and the GC walks them on every major
   slice. The sink flattens records into one growing [Bytes] buffer as
   they are recorded and materializes [record] values only when a
   checker asks.

   Table names are few (the schema's) and repeat in every record, so
   each is written as its id in a per-sink dictionary that [clear]
   keeps. Decoding hands back the dictionary's own strings, and one
   shared list per single-table set, so the records of a decoded log
   own only their rendered keys. *)
module Sink = struct
  module Flat = Storage.Codec.Flat
  module Names = Hashtbl.Make (String)

  type t = {
    w : Flat.writer;
    mutable count : int;
    ids : int Names.t;  (* table name -> id *)
    mutable singles : string list array;
        (* id -> the one-element list of its name; the first [Names.length ids] *)
  }

  let create ?(capacity = 1 lsl 16) () =
    { w = Flat.writer ~capacity (); count = 0; ids = Names.create 16; singles = [||] }

  let clear t =
    Flat.clear t.w;
    t.count <- 0

  let id t name =
    match Names.find t.ids name with
    | id -> id
    | exception Not_found ->
      let id = Names.length t.ids in
      if id = Array.length t.singles then
        t.singles <- Array.append t.singles (Array.make (max 8 id) []);
      Names.add t.ids name id;
      t.singles.(id) <- [ name ];
      id

  (* Option and tier tags. *)
  let tag_none = 0
  let tag_some = 1
  let tier_strong = 0
  let tier_bounded = 1
  let tier_causal = 2
  let tier_eventual = 3

  let put_int_opt w = function
    | None -> Flat.u8 w tag_none
    | Some x ->
      Flat.u8 w tag_some;
      Flat.int w x

  let put_float_opt w = function
    | None -> Flat.u8 w tag_none
    | Some x ->
      Flat.u8 w tag_some;
      Flat.float w x

  let rec put_names t = function
    | [] -> ()
    | name :: rest ->
      Flat.int t.w (id t name);
      put_names t rest

  let rec put_keys t = function
    | [] -> ()
    | (table, key) :: rest ->
      Flat.int t.w (id t table);
      Flat.str t.w key;
      put_keys t rest

  let add t r =
    let w = t.w in
    Flat.int w r.tid;
    Flat.int w r.session;
    Flat.float w r.begin_time;
    Flat.float w r.ack_time;
    Flat.int w r.snapshot_version;
    put_int_opt w r.commit_version;
    Flat.int w r.epoch;
    Flat.int w r.lb_epoch;
    (match r.tier with
    | Strong -> Flat.u8 w tier_strong
    | Bounded { versions; ms } ->
      Flat.u8 w tier_bounded;
      put_int_opt w versions;
      put_float_opt w ms
    | Causal -> Flat.u8 w tier_causal
    | Eventual -> Flat.u8 w tier_eventual);
    Flat.int w (List.length r.table_set);
    put_names t r.table_set;
    Flat.int w (List.length r.tables_written);
    put_names t r.tables_written;
    Flat.int w (List.length r.write_keys);
    put_keys t r.write_keys;
    put_int_opt w r.trace;
    t.count <- t.count + 1

  let read_int_opt c =
    match Flat.read_u8 c with
    | 0 -> None
    | _ -> Some (Flat.read_int c)

  let read_float_opt c =
    match Flat.read_u8 c with
    | 0 -> None
    | _ -> Some (Flat.read_float c)

  let read_id t c =
    let id = Flat.read_int c in
    if id < 0 || id >= Names.length t.ids then
      raise (Storage.Codec.Corrupt (Printf.sprintf "runlog sink: table id %d unknown" id));
    id

  let read_count c =
    let n = Flat.read_int c in
    if n < 0 then raise (Storage.Codec.Corrupt (Printf.sprintf "runlog sink: count %d" n));
    n

  let read_single t c = t.singles.(read_id t c)

  let read_name t c = List.hd (read_single t c)

  let read_names t c =
    match read_count c with
    | 0 -> []
    | 1 -> read_single t c
    | n -> List.init n (fun _ -> read_name t c)

  let read_record t c =
    let tid = Flat.read_int c in
    let session = Flat.read_int c in
    let begin_time = Flat.read_float c in
    let ack_time = Flat.read_float c in
    let snapshot_version = Flat.read_int c in
    let commit_version = read_int_opt c in
    let epoch = Flat.read_int c in
    let lb_epoch = Flat.read_int c in
    let tier =
      match Flat.read_u8 c with
      | 0 -> Strong
      | 1 ->
        let versions = read_int_opt c in
        let ms = read_float_opt c in
        Bounded { versions; ms }
      | 2 -> Causal
      | _ -> Eventual
    in
    let table_set = read_names t c in
    let tables_written = read_names t c in
    let write_keys =
      List.init (read_count c) (fun _ ->
          let table = read_name t c in
          let key = Flat.read_str c in
          (table, key))
    in
    let trace = read_int_opt c in
    {
      tid;
      session;
      begin_time;
      ack_time;
      snapshot_version;
      commit_version;
      epoch;
      lb_epoch;
      tier;
      table_set;
      tables_written;
      write_keys;
      trace;
    }

  let records t =
    let c = Flat.cursor t.w in
    List.init t.count (fun _ -> read_record t c)
end

let digest records =
  (* Canonical rendering of everything semantically meaningful in a
     record. [trace] is excluded: trace ids depend on whether tracing
     was enabled, not on what the cluster did. Floats are printed with
     full precision ([%h]) so two runs only digest equal when their
     virtual-time streams are bit-identical. *)
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%d|%h|%h|%d|%s|e%d%s|%s|%s|%s%s\n" r.tid r.session
           r.begin_time r.ack_time r.snapshot_version
           (match r.commit_version with None -> "ro" | Some v -> string_of_int v)
           r.epoch
           (* LB epoch rendered only after a takeover, so single-LB logs
              digest identically to logs predating LB failover. *)
           (if r.lb_epoch > 0 then Printf.sprintf "|L%d" r.lb_epoch else "")
           (String.concat "," r.table_set)
           (String.concat "," r.tables_written)
           (String.concat ","
              (List.map (fun (t, k) -> t ^ ":" ^ k) r.write_keys))
           (* Tier rendered only when weaker than Strong, so all-strong
              logs digest identically to logs predating read tiers. *)
           (match r.tier with Strong -> "" | t -> "|" ^ tier_string t)))
    records;
  Digest.to_hex (Digest.string (Buffer.contents buf))
