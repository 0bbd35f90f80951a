type status = Alive | Suspect | Dead

type role = {
  mutable crashed : bool;
  mutable self_active : bool;
  mutable self_epoch : int;
  mutable heard : float;
}

type t = {
  cfg : Config.t;
  mode : Consistency.mode;
  rng : Util.Rng.t;
  active : int array;
  live : bool array;
  (* heartbeat failure detector (docs/FAULTS.md): [health] overlays the
     manual [live] switch and only ever changes via [note_contact] /
     [sweep], so it stays all-[Alive] — and invisible — unless the
     cluster runs the detector. *)
  health : status array;
  last_contact : float array;
  mutable suspect_events : int;
  mutable failover_events : int;
  mutable next_rr : int;
  mutable v_system : int;
  mutable cert_epoch : int;  (* highest certifier epoch seen on an ack *)
  mutable cert_fenced : int;  (* acks observed carrying a stale epoch *)
  table_versions : int Util.Tables.Stbl.t;
  session_versions : int Util.Tables.Itbl.t;
  (* read tiers (docs/CONSISTENCY.md): last applied version each replica
     reported (piggybacked on responses and heartbeats — a lower bound
     on its true progress), and, when [read_tiers] is on, a newest-first
     [V_system] history for resolving ms-staleness floors. [vs_base] is
     the newest version pruned out of the history: any cutoff older than
     the retained window resolves to it, rounding the floor up. *)
  applied : int array;
  mutable vs_history : (float * int) list;
  mutable vs_len : int;
  mutable vs_base : int;
  (* LB failover (docs/PROTOCOL.md, "Control plane"): floor installed by
     a takeover. Session floors replicated to a standby may lag the
     active LB by up to one push period, so a fresh active conservatively
     raises {e every} session's floor to the reconstructed system floor —
     read-your-writes survives the lost tail. 0 (never taken over) is
     invisible: [max 0 v = v]. *)
  mutable floor_min : int;
  (* overload admission (docs/PROTOCOL.md, "Overload & admission
     control"): transactions admitted and not yet answered. Per-instance,
     like the active counts — a fresh active after a takeover starts
     empty. *)
  mutable admitted : int;
  role : role;
}

let create ?rng cfg ~mode =
  {
    cfg;
    mode;
    rng = (match rng with Some r -> r | None -> Util.Rng.create cfg.Config.seed);
    active = Array.make cfg.Config.replicas 0;
    live = Array.make cfg.Config.replicas true;
    health = Array.make cfg.Config.replicas Alive;
    last_contact = Array.make cfg.Config.replicas 0.0;
    suspect_events = 0;
    failover_events = 0;
    next_rr = 0;
    v_system = 0;
    cert_epoch = 0;
    cert_fenced = 0;
    table_versions = Util.Tables.Stbl.create 64;
    session_versions = Util.Tables.Itbl.create 256;
    applied = Array.make cfg.Config.replicas 0;
    vs_history = [];
    vs_len = 0;
    vs_base = 0;
    floor_min = 0;
    admitted = 0;
    role = { crashed = false; self_active = true; self_epoch = 0; heard = 0.0 };
  }

let mode t = t.mode

let role t = t.role

let least_active t ok =
  let best = ref (-1) in
  for i = 0 to Array.length t.active - 1 do
    if ok i && (!best < 0 || t.active.(i) < t.active.(!best)) then best := i
  done;
  !best

let round_robin t ok =
  let n = Array.length t.active in
  let rec probe tries =
    if tries >= n then -1
    else begin
      let i = t.next_rr mod n in
      t.next_rr <- t.next_rr + 1;
      if ok i then i else probe (tries + 1)
    end
  in
  probe 0

let random_replica t ok =
  let n = Array.length t.active in
  let rec probe tries =
    if tries >= 4 * n then least_active t ok  (* all-dead guard handled below *)
    else begin
      let i = Util.Rng.int t.rng n in
      if ok i then i else probe (tries + 1)
    end
  in
  probe 0

let pick t ~sid ok =
  match t.cfg.Config.routing with
  | Config.Least_active -> least_active t ok
  | Config.Round_robin -> round_robin t ok
  | Config.Random_replica -> random_replica t ok
  | Config.Session_affinity ->
    let n = Array.length t.active in
    let pinned = ((sid * 2654435761) lxor (sid lsr 5)) land max_int mod n in
    if ok pinned then pinned else least_active t ok

let healthy t i = t.live.(i) && t.health.(i) = Alive

(* Route around detector state in tiers: prefer replicas the detector
   trusts, fall back to suspects, and only then to detector-dead (the
   detector can be wrong — e.g. a partition local to the LB — but the
   manual [live] switch cannot). -1 when no replica is live. *)
let pick_live t ~sid =
  let c = pick t ~sid (healthy t) in
  if c >= 0 then c
  else
    let c = pick t ~sid (fun i -> t.live.(i) && t.health.(i) <> Dead) in
    if c >= 0 then c else pick t ~sid (fun i -> t.live.(i))

let choose_replica t ~sid =
  let chosen = pick_live t ~sid in
  if chosen < 0 then failwith "Load_balancer.choose_replica: no live replica";
  chosen

(* --- Failure detector ----------------------------------------------- *)

(* Detector windows (docs/TUNING.md, "Fixed protocol timings"). Suspect
   is three missed 25 ms heartbeats, so one loss never deprioritizes a
   replica; dead (no routing, off the certifier's live set) outlasts
   loss bursts and short partitions; four sweeps per suspect window. *)
let suspect_after_ms = 80.0
let dead_after_ms = 400.0
let sweep_interval_ms = suspect_after_ms /. 4.0

let note_contact t ~replica ~now =
  if now > t.last_contact.(replica) then t.last_contact.(replica) <- now;
  t.health.(replica) <- Alive

let sweep t ~now =
  for i = 0 to Array.length t.health - 1 do
    let silence = now -. t.last_contact.(i) in
    if silence >= dead_after_ms then begin
      if t.health.(i) <> Dead then begin
        t.failover_events <- t.failover_events + 1;
        t.health.(i) <- Dead
      end
    end
    else if silence >= suspect_after_ms then begin
      if t.health.(i) = Alive then begin
        t.suspect_events <- t.suspect_events + 1;
        t.health.(i) <- Suspect
      end
    end
  done

let health t ~replica = t.health.(replica)

let suspect_events t = t.suspect_events

let failover_events t = t.failover_events

let note_dispatch t ~replica = t.active.(replica) <- t.active.(replica) + 1

let note_complete t ~replica =
  t.active.(replica) <- t.active.(replica) - 1;
  assert (t.active.(replica) >= 0)

let active t ~replica = t.active.(replica)

let set_live t ~replica flag = t.live.(replica) <- flag

let is_live t ~replica = t.live.(replica)

(* [floor_min] bounds every table from below, not just sessions: the
   push-period tail lost in a takeover could have written any table, so
   a fresh active must assume each table was written at the
   reconstructed floor until it observes a newer ack. *)
let table_version t name =
  max t.floor_min
    (Option.value (Util.Tables.Stbl.find_opt t.table_versions name) ~default:0)

let session_version t ~sid =
  max t.floor_min
    (Option.value (Util.Tables.Itbl.find_opt t.session_versions sid) ~default:0)

let start_version t ~sid ~table_set =
  match t.mode with
  | Consistency.Eager -> 0
  | Consistency.Coarse -> t.v_system
  | Consistency.Fine ->
    List.fold_left (fun acc table -> max acc (table_version t table)) 0 table_set
  | Consistency.Session -> session_version t ~sid
  | Consistency.Bounded k -> max 0 (t.v_system - k)

(* --- Read-tier state (docs/CONSISTENCY.md) --------------------------- *)

let note_applied t ~replica ~version =
  if version > t.applied.(replica) then t.applied.(replica) <- version

(* [V_system] history kept for [Bounded_staleness ms] floors: far above
   any bound in use (hundreds of ms), and an older cutoff rounds up to
   the newest pruned version, never weaker than declared. *)
let tier_history_ms = 5_000.0

(* Prune [vs_history] entries older than the retention window. Runs
   every 1024 appends so the per-commit cost is amortized O(1); the
   newest pruned version becomes [vs_base]. *)
let prune_history t ~now =
  let cutoff = now -. tier_history_ms in
  let rec keep n = function
    | [] -> (n, [])
    | (tau, v) :: tl ->
      if tau >= cutoff then
        let n', kept = keep (n + 1) tl in
        (n', (tau, v) :: kept)
      else begin
        (* newest-first: everything from here on is older — drop it all *)
        if v > t.vs_base then t.vs_base <- v;
        (n, [])
      end
  in
  let n, kept = keep 0 t.vs_history in
  t.vs_len <- n;
  t.vs_history <- kept

let note_history t ~now ~version =
  t.vs_history <- (now, version) :: t.vs_history;
  t.vs_len <- t.vs_len + 1;
  if t.vs_len land 1023 = 0 then prune_history t ~now

(* [V_system] as of [now - ms]: the newest history entry at or before
   the cutoff, or [vs_base] when the cutoff predates the retained
   window (conservative — a higher floor than strictly required). *)
let floor_at_ms t ~ms ~now =
  let cutoff = now -. ms in
  let rec find = function
    | [] -> t.vs_base
    | (tau, v) :: tl -> if tau <= cutoff then v else find tl
  in
  find t.vs_history

let note_commit_ack ?(epoch = 0) ?now t ~sid ~version ~tables_written =
  (* Epoch bookkeeping only: a commit released under an older epoch is
     still a valid decision of the surviving history (the certifier
     fences non-surviving decisions itself), so its version MUST still
     advance [V_system] — ignoring it would hand out staler start
     versions and weaken the consistency guarantee, not strengthen it.
     The counters surface how much cross-epoch traffic the LB relays. *)
  if epoch > t.cert_epoch then t.cert_epoch <- epoch
  else if epoch < t.cert_epoch then t.cert_fenced <- t.cert_fenced + 1;
  if version > t.v_system then begin
    t.v_system <- version;
    match now with
    | Some now when t.cfg.Config.read_tiers -> note_history t ~now ~version
    | _ -> ()
  end;
  List.iter
    (fun table ->
      if version > table_version t table then
        Util.Tables.Stbl.replace t.table_versions table version)
    tables_written;
  if version > session_version t ~sid then
    Util.Tables.Itbl.replace t.session_versions sid version

let note_snapshot_ack t ~sid ~snapshot =
  (* Monotone-reads floor: only session mode consults the session table
     for start versions, so only session mode pays for the entry —
     unless read tiers are on, where causal reads in any mode derive
     their floor from it. *)
  if
    (t.mode = Consistency.Session || t.cfg.Config.read_tiers)
    && snapshot > session_version t ~sid
  then Util.Tables.Itbl.replace t.session_versions sid snapshot

let v_system t = t.v_system

let cert_fenced t = t.cert_fenced

let session_count t = Util.Tables.Itbl.length t.session_versions

let prune_sessions t ~applied_min =
  (* An entry <= the cluster-wide minimum applied version buys nothing:
     every replica already satisfies the wait it would impose, and
     [session_version]'s default of 0 gives the same answer once the
     entry is gone. Dropping it re-bounds the table to the set of
     sessions that committed above the watermark. *)
  Util.Tables.Itbl.filter_map_inplace
    (fun _sid version -> if version <= applied_min then None else Some version)
    t.session_versions

(* --- Tier routing ---------------------------------------------------- *)

let tier_floor t ~sid ~tier ~now =
  match tier with
  | Consistency.Strong ->
    invalid_arg "Load_balancer.tier_floor: Strong follows the mode's start_version"
  | Consistency.Eventual -> 0
  | Consistency.Causal -> session_version t ~sid
  | Consistency.Bounded_staleness { versions; ms } ->
    let fv = match versions with Some k -> max 0 (t.v_system - k) | None -> 0 in
    let fm = match ms with Some m -> floor_at_ms t ~ms:m ~now | None -> 0 in
    max fv fm

let most_caught_up t ok =
  let best = ref (-1) in
  for i = 0 to Array.length t.active - 1 do
    if ok i && (!best < 0 || t.applied.(i) > t.applied.(!best)) then best := i
  done;
  !best

let route_read t ~sid ~tier ~now =
  let floor = tier_floor t ~sid ~tier ~now in
  let chosen =
    if floor = 0 then
      (* No floor to satisfy (eventual, or causal/bounded with nothing
         committed): the classic health-tiered policy pick — the policy
         already embodies "fastest replica" (least outstanding work). *)
      pick_live t ~sid
    else
      (* Prefer replicas whose known applied watermark already satisfies
         the floor — the read starts there without waiting. If none
         qualifies, send it to the most-caught-up live replica (ties to
         the lowest id — deterministic, no RNG draw): the floor still
         travels with the request, and [Replica.await_version] holds the
         read until the replica reaches it, so the bound is never
         violated, only served later. *)
      let c = pick t ~sid (fun i -> healthy t i && t.applied.(i) >= floor) in
      if c >= 0 then c
      else
        let c = most_caught_up t (healthy t) in
        if c >= 0 then c
        else
          let c = most_caught_up t (fun i -> t.live.(i) && t.health.(i) <> Dead) in
          if c >= 0 then c else most_caught_up t (fun i -> t.live.(i))
  in
  if chosen < 0 then failwith "Load_balancer.route_read: no live replica";
  (chosen, floor)

(* --- LB state replication (docs/PROTOCOL.md, "Control plane") --------

   The routing state worth surviving a takeover is tiny and monotone:
   [V_system], the certifier epoch, per-table and per-session version
   floors, per-replica applied watermarks and the tier-history base.
   The active LB snapshots it every push period (5 ms, in Cluster) and
   pushes it to the standby, which max-merges — replays and reordering
   are harmless, so the push can ride the lossy fire-and-forget network.
   Everything deliberately NOT replicated (active counts, detector
   state, the [V_system] history list) is either per-instance by nature
   or rebuilt conservatively: the fresh active re-learns contacts and
   watermarks from traffic, and ms-staleness floors resolve to
   [vs_base] — rounded up, never violating a bound. *)

type state = {
  st_v_system : int;
  st_cert_epoch : int;
  st_tables : (string * int) list;
  st_sessions : (int * int) list;
  st_applied : int array;
  st_vs_base : int;
  st_floor_min : int;
}

let capture t =
  {
    st_v_system = t.v_system;
    st_cert_epoch = t.cert_epoch;
    st_tables = Util.Tables.Stbl.fold (fun k v acc -> (k, v) :: acc) t.table_versions [];
    st_sessions =
      Util.Tables.Itbl.fold (fun k v acc -> (k, v) :: acc) t.session_versions [];
    st_applied = Array.copy t.applied;
    st_vs_base = max t.vs_base t.floor_min;
    st_floor_min = t.floor_min;
  }

let state_bytes st =
  64
  + (12 * List.length st.st_tables)
  + (8 * List.length st.st_sessions)
  + (4 * Array.length st.st_applied)

let absorb t st =
  if st.st_v_system > t.v_system then t.v_system <- st.st_v_system;
  if st.st_cert_epoch > t.cert_epoch then t.cert_epoch <- st.st_cert_epoch;
  List.iter
    (fun (table, v) ->
      if v > table_version t table then Util.Tables.Stbl.replace t.table_versions table v)
    st.st_tables;
  List.iter
    (fun (sid, v) ->
      if v > Option.value (Util.Tables.Itbl.find_opt t.session_versions sid) ~default:0
      then Util.Tables.Itbl.replace t.session_versions sid v)
    st.st_sessions;
  Array.iteri
    (fun i v -> if i < Array.length t.applied && v > t.applied.(i) then t.applied.(i) <- v)
    st.st_applied;
  if st.st_vs_base > t.vs_base then t.vs_base <- st.st_vs_base;
  if st.st_floor_min > t.floor_min then t.floor_min <- st.st_floor_min

(* Takeover: install the conservative floor the cluster reconstructed
   (replicated [V_system] ∨ live-replica probe maxima). Raising
   [floor_min] lifts every session floor at once; raising [vs_base]
   makes ms-staleness cutoffs that predate this instance's (empty)
   history resolve at or above the floor. *)
let note_takeover t ~floor =
  if floor > t.v_system then t.v_system <- floor;
  if floor > t.vs_base then t.vs_base <- floor;
  if floor > t.floor_min then t.floor_min <- floor

(* --- Overload admission (docs/PROTOCOL.md, "Overload & admission
   control") -----------------------------------------------------------

   One gate, off by default: a concurrency cap on admitted-but-unanswered
   transactions. Priority shedding: a strong (potentially writing)
   request is shed from 7/8 of the cap, so under pressure strong writes
   are shed first and weak reads degrade last. Everything is arithmetic
   on arrival — no timer events, no RNG — so admission-off runs are
   untouched and admission-on runs stay deterministic. *)

let admission_on (cfg : Config.t) = cfg.Config.admission_limit > 0

let admit t ~strong =
  let cfg = t.cfg in
  let limit = cfg.Config.admission_limit in
  let cap = if strong then max 1 (limit * 7 / 8) else limit in
  if t.admitted >= cap then Error cfg.Config.shed_retry_after_ms
  else begin
    t.admitted <- t.admitted + 1;
    Ok ()
  end

let release t =
  t.admitted <- t.admitted - 1;
  assert (t.admitted >= 0)

let admitted t = t.admitted
