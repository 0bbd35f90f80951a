type routing =
  | Least_active
  | Round_robin
  | Random_replica
  | Session_affinity

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
  certifier_standbys : int;
  standby_ack_quorum : int;
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
  evict_after_ms : float;
  start_wait_timeout_ms : float;
  obs_window_ms : float;
  read_tiers : bool;
  voter_lease_ms : float;
  lb_standby : bool;
  admission_limit : int;
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
    certifier_standbys = 0;
    standby_ack_quorum = 0;
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
    evict_after_ms = 5_000.0;
    start_wait_timeout_ms = 0.0;
    obs_window_ms = 250.0;
    read_tiers = false;
    voter_lease_ms = 0.0;
    lb_standby = false;
    (* overload protection (docs/PROTOCOL.md, "Overload & admission
       control"): every knob defaults off so an unprotected run is
       bit-identical to a build without the machinery. *)
    admission_limit = 0;
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

let protected c =
  {
    c with
    admission_limit = 48;
    cert_queue_bound = 24;
    apply_lag_gap = 200;
    retry_budget = 6.0;
    retry_budget_per_s = 2.0;
    deadline_ms = 500.0;
  }

let validate c =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if c.replicas < 1 then err "replicas must be >= 1 (got %d)" c.replicas
  else if c.cert_batch < 1 then
    err "cert-batch must be >= 1 (1 = unbatched; got %d)" c.cert_batch
  else if c.apply_parallelism < 1 then
    err "apply-parallelism must be >= 1 (1 = serial apply; got %d)" c.apply_parallelism
  else if c.certifier_standbys < 0 then
    err "certifier-standbys must be >= 0 (got %d)" c.certifier_standbys
  else if c.standby_ack_quorum > c.certifier_standbys then
    err
      "standby-ack-quorum (%d) exceeds the number of certifier standbys (%d): \
       no commit could ever be released"
      c.standby_ack_quorum c.certifier_standbys
  else if c.voter_lease_ms < 0.0 then
    err "voter-lease must be >= 0 (0 disables; got %g ms)" c.voter_lease_ms
  else if c.admission_limit < 0 then
    err "admission-limit must be >= 1, or 0 to disable (got %d)" c.admission_limit
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
  else Ok ()
