(** Load-balancer routing policies (the paper uses least-active; the
    others exist for the ablation benchmarks). *)
type routing =
  | Least_active
  | Round_robin
  | Random_replica
  | Session_affinity
      (** pin each session to a replica (hash of the session id);
          falls back to least-active when the pinned replica is down *)

(** Cluster and cost-model parameters.

    All times are milliseconds of virtual time. Service times are scaled
    by an exponential(1) factor when [service_jitter] is set, giving
    M/M/k-style queueing variance — the source of the "slowest replica"
    effect that penalizes the eager configuration. *)

type t = {
  seed : int;
  replicas : int;
  (* statement execution on a replica *)
  stmt_base_ms : float;  (** fixed per-statement overhead *)
  row_scan_ms : float;  (** per row examined *)
  row_read_ms : float;  (** per row returned *)
  row_write_ms : float;  (** per row buffered for write *)
  (* commit processing *)
  ro_commit_ms : float;  (** read-only local commit *)
  commit_ms : float;  (** update local commit *)
  ws_apply_base_ms : float;  (** refresh transaction fixed cost *)
  ws_apply_row_ms : float;  (** refresh cost per writeset row *)
  (* certifier *)
  certify_base_ms : float;
  certify_row_ms : float;  (** per writeset row conflict-checked *)
  durability_ms : float;  (** forcing the certifier log *)
  cert_batch : int;
      (** group certification: the maximum number of queued certification
          requests decided in one batch. The certifier drains its backlog
          (up to this cap) each time its CPU frees up, certifies the
          batch in one pass over the writeset log — intra-batch
          write-write conflicts abort the later arrival — assigns a
          contiguous version range, forces the log {e once} per batch,
          replicates to the standbys in one round trip and propagates one
          refresh batch message per replica. 1 (the default) reproduces
          unbatched certification exactly: every event, sleep and random
          draw is the same as before batching existed. *)
  certifier_standbys : int;
      (** replicas of the certifier state machine (§IV fault-tolerance).
          Each commit decision is synchronously replicated to every
          standby before the originating replica learns it, adding one
          network round trip; a standby can then take over after a
          certifier crash with no lost decisions. 0 = single certifier. *)
  standby_ack_quorum : int;
      (** standby acknowledgements a commit batch waits for before its
          decisions are released (docs/PROTOCOL.md, "Certifier HA").
          [<= 0] (the default) means {e all} standbys. Any setting is
          safe: elections intersect the write quorum (a candidate needs
          votes from enough voters that at least one holds every
          released decision — see docs/PROTOCOL.md, "Control plane"),
          so smaller quorums trade durability breadth for release
          latency without risking a released decision. Clamped to the
          number of live standbys. *)
  apply_parallelism : int;
      (** conflict-aware parallel refresh application: the maximum number
          of concurrent apply lanes a replica's commit sequencer forks
          for a run of consecutive queued refresh writesets (at most
          [4 * apply_parallelism] of them). The run is partitioned by
          conflict key ({!Storage.Writeset.keys}): writesets sharing a
          key stay in one lane and apply in version order; disjoint
          lanes apply concurrently on the replica CPUs. [V_local] is
          published only when the whole run is installed, so snapshot
          semantics and the version arithmetic of Table I are unchanged.
          1 (the default) is one lane: every run is a single writeset,
          applied and published one version at a time, bit-identical to
          the pre-batching sequencer. *)
  (* transient replica slowdowns (checkpoints, cache misses, OS noise):
     each replica independently enters a slow window in which its service
     times are multiplied by a fixed factor ({!Replica}). The eager
     configuration is exposed to the slowest replica on every commit
     round; lazy configurations mostly absorb these windows. *)
  hiccup_interval_ms : float;  (** mean time between windows; 0 disables *)
  (* behaviour *)
  service_jitter : bool;
  early_certification : bool;
      (** check update statements against pending refresh writesets and
          abort on conflict before reaching the certifier (§IV, hidden
          deadlock avoidance). Off = conflicts surface at certification. *)
  routing : routing;
  max_retries : int;  (** client-side retries after an abort *)
  record_log : bool;  (** keep per-transaction {!Check.Runlog.record}s *)
  gc_interval_ms : float;  (** MVCC vacuum period; 0 disables *)
  (* client policy under faults (docs/FAULTS.md). The protocol itself
     has no switch, and its timers are constants (docs/TUNING.md, "Fixed
     protocol timings"). *)
  retry_backoff_ms : float;
      (** client retry backoff base: after the [n]-th abort the client
          sleeps [base * 2^n] ms (capped at 50 ms) with ±50% jitter
          before retrying. 0 (the default) retries immediately and
          draws no random numbers, preserving golden behaviour. *)
  start_wait_timeout_ms : float;
      (** bound on waiting for a replica to catch up to a transaction's
          start version; on expiry the transaction aborts with
          {!Transaction.Timeout} and the client retries elsewhere.
          0 (the default) waits forever. *)
  (* run-health observatory (docs/OBSERVABILITY.md). Read only when the
     observatory is started; a run without one does not allocate a
     single observatory object. *)
  obs_window_ms : float;
      (** time-series window span in virtual ms ({!Obs.Timeseries});
          every windowed rate, latency summary and health gauge is
          aggregated per window of this size; must be > 0 *)
  (* mixed-consistency read tiers (docs/CONSISTENCY.md). Off by
     default: with [read_tiers = false] every request runs under the
     cluster's write mode and the tier machinery allocates nothing —
     runs are bit-identical to a build without it. *)
  read_tiers : bool;
      (** accept non-[Strong] {!Consistency.read_tier} requests: the
          load balancer tracks per-replica applied watermarks and a
          [V_system] history for ms-bounds, routes tiered reads by
          staleness instead of the version oracle, widens session-floor
          maintenance to all modes (causal reads need it outside
          [Session] mode), and the observatory exports per-tier
          channels. Off, a non-[Strong] request is still honoured but
          routed like any other — enable this to get the contracts. *)
  (* consensus-grade control plane (docs/PROTOCOL.md, "Control plane").
     Both knobs default off: the voter lease is off at 0, and the
     standby LB is off. *)
  voter_lease_ms : float;
      (** voter liveness lease: a standby that has not acknowledged
          replication for this long while the primary has decisions
          outstanding is demoted to learner and leaves the ack quorum,
          bounding the [standby_ack_quorum = all] commit stall under a
          partitioned-but-alive voter to one lease window. The demoted
          member is re-admitted by the existing learner→voter
          reconciliation path as soon as its acks catch back up.
          0 (the default) disables demotion — a partitioned voter then
          stalls quorum=all commits until it heals. *)
  lb_standby : bool;
      (** run a standby load balancer ({!node_lb_standby}): the active
          LB pushes its routing state ([V_system], certifier epoch,
          session floors, applied watermarks, tier-history base) to the
          standby every 5 ms; the standby takes over after 25 ms of
          push silence, conservatively
          reconstructing floors from live replicas so read-your-writes
          and bounded-staleness guarantees survive the takeover. The
          deposed LB is fenced by the LB epoch. Off (the default) the
          cluster runs the classic singleton LB and allocates none of
          this. *)
  (* overload protection (docs/PROTOCOL.md, "Overload & admission
     control"). *)
  overload_protection : bool;
      (** arm the overload stack, whose limits are constants in the
          modules that enforce them (docs/TUNING.md, "Fixed protocol
          timings"): the load balancer's admission cap
          ({!Load_balancer.admission_limit}, strong requests shed from
          7/8 of it), the certifier's bounded backlog, the apply-lag
          governor ({!Certifier.apply_lag_exceeded}), a per-client retry
          token bucket and a per-attempt deadline
          ({!Cluster.deadline_ms}). Rejected work aborts with
          {!Transaction.Overloaded} before consuming any replica or
          certifier resources. Off (the default) the run draws no extra
          random numbers and schedules no extra events, so it is
          bit-identical to a build without the machinery. *)
}

(** {2 Fault-plan node ids}

    Node ids used to tag cluster traffic for {!Sim.Faults} link rules
    and partitions: replicas are their index ([0 .. replicas-1]); the
    singleton roles get fixed negative ids. *)

val node_client : int

val node_lb : int

val node_certifier : int

val node_cert_standby : int -> int
(** Network id of certifier-group member [k]: member 0 (the initial
    primary) is {!node_certifier}; standby [k >= 1] gets its own fixed
    negative id so fault plans can cut it off individually. *)

val node_lb_standby : int
(** Network id of the standby load balancer ([lb_standby = true]), so
    fault plans can crash or partition either LB instance on its own. *)

val cpus_per_replica : int
(** CPUs of each replica: its FIFO k-server CPU resource, and the lane
    count of {!batched}. *)

val default : t
(** 8 replicas, 2 CPUs each, LAN latencies, service times calibrated so
    that the replica CPUs (not the certifier) are the bottleneck. *)

val tpcw : t
(** {!default} with statement/commit/apply costs scaled to 2008-era
    complex-query executions (several ms per statement), so that the
    paper's client populations saturate the replicas. The refresh-apply
    cost is ~0.3–0.4x of full execution, which reproduces the paper's
    7x / 5x / 3x scaling for the browsing / shopping / ordering mixes
    (adding replicas adds refresh work proportional to the update
    fraction). *)

val batched : t -> t
(** The batched-pipeline variant of a configuration: [cert_batch = 8]
    and [apply_parallelism = ]{!cpus_per_replica}. Used by the batched
    experiment sweeps ([repro batch]); see docs/TUNING.md for the
    measured effect of each knob. *)

val hardened : t -> t
(** The client policy for a faulty network, which the chaos harness
    runs under (docs/FAULTS.md): [start_wait_timeout_ms = 300] and
    [retry_backoff_ms = 0.5]. The protocol is the same without it. *)

val validate : t -> (unit, string) result
(** Reject nonsensical settings with a human-readable reason instead of
    silently clamping or failing at runtime: a certification batch cap
    or apply-lane count below 1, an ack quorum larger than
    the standby count (no commit could ever release), a negative or NaN
    voter lease, an observatory window that is not finite and positive.
    {!Cluster.create} runs this and raises [Invalid_argument] on
    [Error]; the CLI surfaces the message as a clean usage error. *)
