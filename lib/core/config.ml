type routing =
  | Least_active
  | Round_robin
  | Random_replica
  | Session_affinity

type t = {
  seed : int;
  replicas : int;
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
  service_jitter : bool;
  early_certification : bool;
  routing : routing;
  max_retries : int;
  record_log : bool;
  gc_interval_ms : float;
  retry_backoff_ms : float;
  start_wait_timeout_ms : float;
  obs_window_ms : float;
  read_tiers : bool;
  voter_lease_ms : float;
  lb_standby : bool;
  overload_protection : bool;
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

(* The paper's dual-core testbed machines (§V). *)
let cpus_per_replica = 2

let default =
  {
    seed = 42;
    replicas = 8;
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
    service_jitter = true;
    early_certification = true;
    routing = Least_active;
    max_retries = 10;
    record_log = false;
    gc_interval_ms = 10_000.0;
    retry_backoff_ms = 0.0;
    start_wait_timeout_ms = 0.0;
    obs_window_ms = 250.0;
    read_tiers = false;
    voter_lease_ms = 0.0;
    lb_standby = false;
    (* overload protection (docs/PROTOCOL.md, "Overload & admission
       control") is off so an unprotected run is bit-identical to a
       build without the machinery. *)
    overload_protection = false;
  }

let hardened c = { c with start_wait_timeout_ms = 300.0; retry_backoff_ms = 0.5 }

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

let batched c = { c with cert_batch = 8; apply_parallelism = cpus_per_replica }

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
  else if Float.is_nan c.voter_lease_ms || c.voter_lease_ms < 0.0 then
    err "voter-lease must be >= 0 (0 disables; got %g ms)" c.voter_lease_ms
  else if not (Float.is_finite c.obs_window_ms && c.obs_window_ms > 0.0) then
    err "obs-window must be finite and > 0 (got %g ms)" c.obs_window_ms
  else Ok ()
