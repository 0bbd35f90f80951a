type routing =
  | Least_active
  | Round_robin
  | Random_replica
  | Session_affinity

type cert_index =
  | Linear
  | Keyed

let cert_index_name = function Linear -> "linear" | Keyed -> "keyed"

type t = {
  seed : int;
  replicas : int;
  cpus_per_replica : int;
  net_base_ms : float;
  net_jitter_ms : float;
  net_bandwidth_mbps : float;
  lb_ms : float;
  stmt_base_ms : float;
  row_scan_ms : float;
  row_read_ms : float;
  row_write_ms : float;
  ro_commit_ms : float;
  commit_ms : float;
  ws_apply_base_ms : float;
  ws_apply_row_ms : float;
  certify_base_ms : float;
  certify_row_ms : float;
  durability_ms : float;
  cert_batch : int;
  cert_index : cert_index;
  certifier_standbys : int;
  standby_ack_quorum : int;
  cert_heartbeat_ms : float;
  cert_suspect_after_ms : float;
  promotion_backoff_ms : float;
  apply_parallelism : int;
  hiccup_interval_ms : float;
  hiccup_duration_ms : float;
  hiccup_factor : float;
  service_jitter : bool;
  early_certification : bool;
  routing : routing;
  max_retries : int;
  record_log : bool;
  gc_interval_ms : float;
  gc_window : int;
  watermark_slack : int;
  retry_backoff_ms : float;
  retry_backoff_max_ms : float;
  reliable : bool;
  rto_ms : float;
  max_retransmits : int;
  retransmit_ms : float;
  heartbeat_ms : float;
  suspect_after_ms : float;
  dead_after_ms : float;
  evict_after_ms : float;
  start_wait_timeout_ms : float;
  obs_window_ms : float;
  obs_hist_buckets_per_decade : int;
  read_tiers : bool;
  tier_history_ms : float;
  cert_election_timeout_ms : float;
  voter_lease_ms : float;
  lb_standby : bool;
  lb_repl_ms : float;
  lb_suspect_after_ms : float;
  admission_limit : int;
  admission_rate_tps : float;
  admission_burst : float;
  cert_queue_bound : int;
  apply_lag_gap : int;
  shed_retry_after_ms : float;
  retry_budget : float;
  retry_budget_per_s : float;
  deadline_ms : float;
}

(* Fault-plan node ids: replicas use their index (>= 0); the other roles
   get fixed negative ids so Sim.Faults link rules and partitions can
   target them. *)
let node_client = -4
let node_lb = -3
let node_certifier = -2

(* Certifier group members: member 0 (the initial primary) keeps the
   classic [node_certifier] id; standby [k >= 1] gets a fixed id below
   the other roles so fault plans can partition an individual standby —
   or a promoted primary — without touching the rest of the cluster. *)
let node_cert_standby k = if k = 0 then node_certifier else -8 - k

(* The standby load balancer's endpoint (-5 is free: -6/-7 were never
   assigned and certifier standbys live at -9 and below). *)
let node_lb_standby = -5

let default =
  {
    seed = 42;
    replicas = 8;
    cpus_per_replica = 2;
    net_base_ms = 0.15;
    net_jitter_ms = 0.1;
    net_bandwidth_mbps = 1000.0;
    lb_ms = 0.05;
    stmt_base_ms = 0.3;
    row_scan_ms = 0.002;
    row_read_ms = 0.05;
    row_write_ms = 0.15;
    ro_commit_ms = 0.1;
    commit_ms = 0.25;
    ws_apply_base_ms = 0.08;
    ws_apply_row_ms = 0.04;
    certify_base_ms = 0.05;
    certify_row_ms = 0.005;
    durability_ms = 0.08;
    cert_batch = 1;
    cert_index = Keyed;
    certifier_standbys = 0;
    standby_ack_quorum = 0;
    cert_heartbeat_ms = 10.0;
    cert_suspect_after_ms = 40.0;
    promotion_backoff_ms = 10.0;
    apply_parallelism = 1;
    hiccup_interval_ms = 1_500.0;
    hiccup_duration_ms = 150.0;
    hiccup_factor = 8.0;
    service_jitter = true;
    early_certification = true;
    routing = Least_active;
    max_retries = 10;
    record_log = false;
    gc_interval_ms = 10_000.0;
    gc_window = 1_000;
    watermark_slack = 1_000;
    retry_backoff_ms = 0.0;
    retry_backoff_max_ms = 50.0;
    reliable = false;
    rto_ms = 2.0;
    max_retransmits = 8;
    retransmit_ms = 30.0;
    heartbeat_ms = 25.0;
    suspect_after_ms = 80.0;
    dead_after_ms = 400.0;
    evict_after_ms = 5_000.0;
    start_wait_timeout_ms = 0.0;
    obs_window_ms = 250.0;
    obs_hist_buckets_per_decade = 40;
    read_tiers = false;
    tier_history_ms = 5_000.0;
    cert_election_timeout_ms = 15.0;
    voter_lease_ms = 0.0;
    lb_standby = false;
    lb_repl_ms = 5.0;
    lb_suspect_after_ms = 25.0;
    (* overload protection (docs/PROTOCOL.md, "Overload & admission
       control"): every knob defaults off so an unprotected run is
       bit-identical to a build without the machinery. *)
    admission_limit = 0;
    admission_rate_tps = 0.0;
    admission_burst = 16.0;
    cert_queue_bound = 0;
    apply_lag_gap = 0;
    shed_retry_after_ms = 5.0;
    retry_budget = 0.0;
    retry_budget_per_s = 10.0;
    deadline_ms = 0.0;
  }

let hardened c =
  {
    c with
    reliable = true;
    start_wait_timeout_ms = 300.0;
    retry_backoff_ms = 0.5;
  }

let tpcw =
  {
    default with
    stmt_base_ms = 7.0;
    row_scan_ms = 0.05;
    row_read_ms = 0.4;
    row_write_ms = 1.2;
    ro_commit_ms = 1.0;
    commit_ms = 3.0;
    ws_apply_base_ms = 1.5;
    ws_apply_row_ms = 1.8;
    certify_base_ms = 0.2;
    certify_row_ms = 0.02;
    durability_ms = 0.3;
  }

let batched c = { c with cert_batch = 8; apply_parallelism = c.cpus_per_replica }

let validate c =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if c.replicas < 1 then err "replicas must be >= 1 (got %d)" c.replicas
  else if c.certifier_standbys < 0 then
    err "certifier-standbys must be >= 0 (got %d)" c.certifier_standbys
  else if c.standby_ack_quorum > c.certifier_standbys then
    err
      "standby-ack-quorum (%d) exceeds the number of certifier standbys (%d): \
       no commit could ever be released"
      c.standby_ack_quorum c.certifier_standbys
  else if c.certifier_standbys > 0 && c.cert_heartbeat_ms < 0.0 then
    err "cert-heartbeat interval must be >= 0 (got %g ms)" c.cert_heartbeat_ms
  else if c.certifier_standbys > 0 && c.cert_heartbeat_ms > 0.0 && c.cert_suspect_after_ms <= 0.0
  then err "cert-suspect-after must be > 0 when heartbeats run (got %g ms)" c.cert_suspect_after_ms
  else if c.certifier_standbys > 0 && c.promotion_backoff_ms < 0.0 then
    err "promotion-backoff must be >= 0 (got %g ms)" c.promotion_backoff_ms
  else if c.certifier_standbys > 0 && c.cert_election_timeout_ms <= 0.0 then
    err "cert-election-timeout must be > 0 (got %g ms)" c.cert_election_timeout_ms
  else if c.voter_lease_ms < 0.0 then
    err "voter-lease must be >= 0 (0 disables; got %g ms)" c.voter_lease_ms
  else if c.lb_standby && c.lb_repl_ms <= 0.0 then
    err "lb-repl interval must be > 0 when the standby LB is on (got %g ms)" c.lb_repl_ms
  else if c.lb_standby && c.lb_suspect_after_ms <= 0.0 then
    err "lb-suspect-after must be > 0 when the standby LB is on (got %g ms)"
      c.lb_suspect_after_ms
  else if c.lb_standby && c.lb_suspect_after_ms <= c.lb_repl_ms then
    err
      "lb-suspect-after (%g ms) must exceed the lb-repl interval (%g ms) or the standby \
       deposes a healthy LB on every push gap"
      c.lb_suspect_after_ms c.lb_repl_ms
  else if c.admission_limit < 0 then
    err "admission-limit must be >= 1, or 0 to disable (got %d)" c.admission_limit
  else if c.admission_rate_tps < 0.0 then
    err "admission-rate must be > 0, or 0 to disable (got %g tps)" c.admission_rate_tps
  else if c.admission_rate_tps > 0.0 && c.admission_burst < 1.0 then
    err
      "admission-burst (%g) must be >= 1 token when the admission token bucket is on: \
       no request could ever be admitted"
      c.admission_burst
  else if c.cert_queue_bound < 0 then
    err "cert-queue-bound must be >= 1, or 0 to disable (got %d)" c.cert_queue_bound
  else if c.apply_lag_gap < 0 then
    err "apply-lag-gap must be >= 1, or 0 to disable (got %d versions)" c.apply_lag_gap
  else if c.apply_lag_gap > 0 && c.apply_lag_gap >= c.watermark_slack then
    err
      "apply-lag-gap (%d versions) must stay below watermark-slack (%d): a replica \
       lagging past the slack is forced into state transfer before the governor would \
       ever throttle writes"
      c.apply_lag_gap c.watermark_slack
  else if c.shed_retry_after_ms <= 0.0 then
    err "shed-retry-after must be > 0 (got %g ms)" c.shed_retry_after_ms
  else if c.retry_budget < 0.0 then
    err "retry-budget must be > 0 tokens, or 0 to disable (got %g)" c.retry_budget
  else if c.retry_budget > 0.0 && c.retry_budget_per_s <= 0.0 then
    err
      "retry-budget-per-s must be > 0 when the retry budget is on (got %g): an \
       exhausted client could never retry again"
      c.retry_budget_per_s
  else if c.deadline_ms < 0.0 then
    err "deadline must be > 0, or 0 to disable (got %g ms)" c.deadline_ms
  else if c.obs_window_ms <= 0.0 then
    err "obs-window must be > 0 (got %g ms)" c.obs_window_ms
  else if c.obs_hist_buckets_per_decade <= 0 then
    err "obs-hist-buckets-per-decade must be > 0 (got %d)" c.obs_hist_buckets_per_decade
  else Ok ()

let pp ppf c =
  Format.fprintf ppf
    "@[<v>replicas=%d cpus=%d seed=%d@,\
     net: base=%.2fms jitter=%.2fms bw=%.0fMbps lb=%.2fms@,\
     exec: stmt=%.2f scan=%.3f read=%.3f write=%.3f (ms)@,\
     commit: ro=%.2f upd=%.2f apply=%.2f+%.2f/row (ms)@,\
     certifier: %.2f+%.3f/row durability=%.2f index=%s (ms)@,\
     batching: cert_batch=%d apply_parallelism=%d@,\
     jitter=%b retries=%d record_log=%b watermark_slack=%d@,\
     reliable=%b rto=%.1fms max_retransmits=%d retransmit=%.0fms \
     heartbeat=%.0fms suspect=%.0fms dead=%.0fms evict=%.0fms \
     start_wait=%.0fms backoff=%.1f..%.0fms@,\
     certifier HA: standbys=%d ack_quorum=%s heartbeat=%.0fms suspect=%.0fms \
     promotion_backoff=%.0fms election_timeout=%.0fms voter_lease=%s@,\
     lb HA: standby=%b repl=%.0fms suspect=%.0fms@,\
     observatory: window=%.0fms hist_buckets/decade=%d@,\
     read tiers: enabled=%b history=%.0fms@,\
     overload: admission_limit=%s rate=%s burst=%.0f cert_queue_bound=%s \
     apply_lag_gap=%s retry_after=%.1fms retry_budget=%s deadline=%s@]"
    c.replicas c.cpus_per_replica c.seed c.net_base_ms c.net_jitter_ms c.net_bandwidth_mbps
    c.lb_ms c.stmt_base_ms c.row_scan_ms c.row_read_ms c.row_write_ms c.ro_commit_ms
    c.commit_ms c.ws_apply_base_ms c.ws_apply_row_ms c.certify_base_ms c.certify_row_ms
    c.durability_ms (cert_index_name c.cert_index) c.cert_batch c.apply_parallelism
    c.service_jitter c.max_retries c.record_log c.watermark_slack c.reliable c.rto_ms
    c.max_retransmits c.retransmit_ms c.heartbeat_ms c.suspect_after_ms c.dead_after_ms
    c.evict_after_ms c.start_wait_timeout_ms c.retry_backoff_ms c.retry_backoff_max_ms
    c.certifier_standbys
    (if c.standby_ack_quorum <= 0 then "all" else string_of_int c.standby_ack_quorum)
    c.cert_heartbeat_ms c.cert_suspect_after_ms c.promotion_backoff_ms
    c.cert_election_timeout_ms
    (if c.voter_lease_ms <= 0.0 then "off" else Printf.sprintf "%.0fms" c.voter_lease_ms)
    c.lb_standby c.lb_repl_ms c.lb_suspect_after_ms
    c.obs_window_ms c.obs_hist_buckets_per_decade c.read_tiers c.tier_history_ms
    (if c.admission_limit <= 0 then "off" else string_of_int c.admission_limit)
    (if c.admission_rate_tps <= 0.0 then "off"
     else Printf.sprintf "%.0ftps" c.admission_rate_tps)
    c.admission_burst
    (if c.cert_queue_bound <= 0 then "off" else string_of_int c.cert_queue_bound)
    (if c.apply_lag_gap <= 0 then "off" else string_of_int c.apply_lag_gap)
    c.shed_retry_after_ms
    (if c.retry_budget <= 0.0 then "off"
     else Printf.sprintf "%.0f@%.0f/s" c.retry_budget c.retry_budget_per_s)
    (if c.deadline_ms <= 0.0 then "off" else Printf.sprintf "%.0fms" c.deadline_ms)
