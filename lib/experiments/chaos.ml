let default_params = { Workload.Microbench.tables = 4; rows = 200; update_types = 2 }

let default_config ~seed =
  Core.Config.hardened
    {
      Core.Config.default with
      Core.Config.seed;
      replicas = 3;
      record_log = true;
      hiccup_interval_ms = 0.0;
    }

let point ?config ?(params = default_params) ?(clients = 12) ?(tiers = false)
    ?(protections = true) ?(offered_tps = 6_000.0) ~mode ~plan ~seed ~duration_ms () =
  let config =
    match config with
    | Some c -> { c with Core.Config.seed; record_log = true }
    | None -> default_config ~seed
  in
  (* The overload plan arms the full protection stack (admission cap,
     bounded certifier backlog, apply-lag governor, retry budget,
     deadlines). [~protections:false] is the experiment's control arm:
     same open-loop load, same gray fault, nothing shed — the metastable
     collapse the protections exist to prevent. *)
  let config =
    if plan = Runner.Overload && protections then
      { config with Core.Config.overload_protection = true }
    else config
  in
  let config =
    if tiers then { config with Core.Config.read_tiers = true } else config
  in
  (* The cert-failover plan needs a certifier group that survives losing
     its primary while another member is partitioned: two standbys. *)
  let config =
    if plan = Runner.CertFailover && config.Core.Config.certifier_standbys < 2 then
      { config with Core.Config.certifier_standbys = 2 }
    else config
  in
  (* The control-plane plan needs the whole HA surface: two certifier
     standbys (an election quorum that survives one partitioned voter),
     a standby LB, and the voter lease — under the default
     [standby_ack_quorum = all] the partitioned-voter phase would
     otherwise stall commits for its entire window. *)
  let config =
    if plan = Runner.ControlPlane then
      {
        config with
        Core.Config.certifier_standbys = max 2 config.Core.Config.certifier_standbys;
        lb_standby = true;
        voter_lease_ms =
          (if config.Core.Config.voter_lease_ms <= 0.0 then 100.0
           else config.Core.Config.voter_lease_ms);
      }
    else config
  in
  {
    Runner.mode;
    workload = (if tiers then Runner.Tiered (params, None) else Runner.Micro params);
    replicas = config.Core.Config.replicas;
    clients;
    warmup_ms = 0.0;
    measure_ms = duration_ms;
    seed;
    config;
    (* The overload plan drives open-loop arrivals: [offered_tps] is the
       aggregate offered rate, and it does not slow down when the
       cluster does — the defining property of the regime. Every other
       plan keeps the paper's closed-loop RTEs. *)
    arrival = (if plan = Runner.Overload then Runner.Open offered_tps else Runner.Closed);
    faults = Some plan;
    drain = true;
  }

(* The matrix order (plans, then modes, then seeds) is part of the
   harness contract: results come back in it whatever the pool size. *)
let points ?config ?params ?clients ?tiers ?protections ?offered_tps
    ?(modes = Core.Consistency.all) ?(plans = [ Runner.Mixed ]) ~seeds ~duration_ms () =
  List.concat_map
    (fun plan ->
      List.concat_map
        (fun mode ->
          List.map
            (fun seed ->
              point ?config ?params ?clients ?tiers ?protections ?offered_tps ~mode ~plan
                ~seed ~duration_ms ())
            seeds)
        modes)
    plans

let plan_of (p : Runner.point) = Option.get p.faults

let tiered (p : Runner.point) =
  match p.workload with Runner.Tiered _ -> true | _ -> false

(* Stale-epoch certifier traffic rejected anywhere: at the certifier
   group, at the replicas and at the load balancer. *)
let fenced s =
  Runner.total s "certifier.fenced" + Runner.total s "replicas.fenced"
  + Runner.total s "lb.cert_fenced"

let ok (p, (s : Runner.summary)) =
  let plan = plan_of p in
  let promotions = Runner.total s "certifier.promotions" in
  (not s.wedged)
  && s.divergent_log_entries = 0
  && List.for_all (fun (_, n) -> n = 0) (Runner.battery s)
  (* The cert-failover plan exists to exercise automatic promotion: a
     run where no standby ever took over proves nothing. *)
  && (plan <> Runner.CertFailover || promotions >= 1)
  (* Likewise, a control-plane run must see both halves actually fail
     over: at least one safe election-backed promotion AND at least one
     standby-LB takeover. *)
  && (plan <> Runner.ControlPlane || (promotions >= 1 && Runner.total s "lb.takeovers" >= 1))
  (* A shed transaction may never also commit, whatever the plan. *)
  && s.zombie_commits = 0
  (* An overload run where nothing was ever refused proves nothing: the
     open-loop load is sized beyond capacity, so protection must bite. *)
  && (plan <> Runner.Overload || Runner.total s "txn.shed" > 0)

let pp_result ppf ((p : Runner.point), (s : Runner.summary)) =
  let viol = List.fold_left (fun acc (_, n) -> acc + n) 0 (Runner.battery s) in
  let n = Runner.total s in
  Format.fprintf ppf
    "%-7s %-13s seed=%-4d %s  committed=%-5d aborted=%-4d violations=%d%s%s  \
     drain=%.0fms  faults: drop=%d dup=%d delay=%d retx=%d suspects=%d failovers=%d \
     reprov=%d evict=%d%s%s%s  digest=%s"
    (Core.Consistency.to_string s.mode)
    (Runner.plan_name (plan_of p) ^ if tiered p then "+tiers" else "")
    p.seed
    (if ok (p, s) then "ok    " else "FAILED")
    s.committed s.aborted viol
    (if s.divergent_log_entries > 0 then
       Printf.sprintf " DIVERGENT=%d" s.divergent_log_entries
     else "")
    (if s.wedged then " WEDGED" else "")
    s.drain_ms
    (n "fault.drops") (n "fault.duplicates") (n "fault.delays")
    (n "net.retransmits" + n "certifier.retransmits")
    (n "detector.suspect") (n "detector.dead") (n "detector.reprovision")
    (n "certifier.evictions")
    (if s.epoch > 0 then
       Printf.sprintf " epoch=%d promotions=%d fenced=%d outage_max=%.0fms" s.epoch
         (n "certifier.promotions") (fenced s) s.outage_max_ms
     else "")
    (if n "certifier.elections" + n "lb.takeovers" + n "certifier.lease_expiries" > 0 then
       Printf.sprintf " elections=%d denials=%d leases=%d lb_takeovers=%d lb_fenced=%d"
         (n "certifier.elections") (n "certifier.vote_denials")
         (n "certifier.lease_expiries") (n "lb.takeovers") (n "lb.fenced")
     else "")
    (let shed = n "txn.shed" and expired = n "txn.deadline_expired"
     and budget_out = n "txn.retry_budget_exhausted" in
     if shed + expired + budget_out + s.zombie_commits > 0 then
       Printf.sprintf " shed=%d expired=%d budget_out=%d max_queue=%d zombies=%d" shed
         expired budget_out s.max_queue_depth s.zombie_commits
     else "")
    (String.sub s.digest 0 12)

(* Per-run health timeline artifact: what the soak injected and what the
   cluster did about it, one object per run — uploaded by CI when a soak
   fails so the failure is diagnosable without a local rerun. *)
let result_json ((p : Runner.point), (s : Runner.summary)) =
  let num n = Obs.Json.Num (float_of_int n) in
  let counts pairs =
    Obs.Json.Obj (List.map (fun (name, n) -> (name, num n)) pairs)
  in
  Obs.Json.Obj
    [
      ("mode", Obs.Json.Str (Core.Consistency.to_string s.mode));
      ("plan", Obs.Json.Str (Runner.plan_name (plan_of p)));
      ("seed", num p.seed);
      ("tiers", Obs.Json.Bool (tiered p));
      ("ok", Obs.Json.Bool (ok (p, s)));
      ("committed", num s.committed);
      ("aborted", num s.aborted);
      ("aborts_by_reason", counts s.aborts_by_reason);
      ("violations", counts (Runner.battery s));
      ("divergent_log_entries", num s.divergent_log_entries);
      ("wedged", Obs.Json.Bool s.wedged);
      ("wedge_drain_ms", Obs.Json.Num s.drain_ms);
      ("totals", counts s.totals);
      ("epoch", num s.epoch);
      ("lb_epoch", num s.lb_epoch);
      ("outage_max_ms", Obs.Json.Num s.outage_max_ms);
      ("max_queue_depth", num s.max_queue_depth);
      ("zombie_commits", num s.zombie_commits);
      ("digest", Obs.Json.Str s.digest);
    ]

let health_json results =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Num 3.0);
      ("runs", Obs.Json.Arr (List.map result_json results));
    ]

let write_health results ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string (health_json results));
      output_char oc '\n')
