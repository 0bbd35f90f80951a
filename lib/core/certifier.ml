(* Int-keyed monomorphic tables: every map in here is keyed by a
   replica id or a commit version. *)
module Itbl = Util.Tables.Itbl
module Log = Certification.Log
module Index = Certification.Index

type eager_state = {
  waiting_on : unit Itbl.t;  (* replica ids that have not acked *)
  done_ : unit Sim.Ivar.t;
}

(* One member of the certifier group: the primary plus
   [Config.certifier_standbys] standbys, each holding its own copy of
   the decision log (the certifier is deterministic, so the log IS the
   state — the state-machine replication approach of §IV). Member 0 is
   the initial primary; any member can hold the primary role after a
   promotion. *)
type cnode = {
  cn_index : int;
  cn_net : int;  (* network endpoint id ([Config.node_cert_standby]) *)
  cn_log : Log.t;
  mutable cn_epoch : int;  (* highest epoch this member has adopted *)
  mutable cn_crashed : bool;
  (* Highest contiguous log position this member has acknowledged to a
     primary (appends are contiguity-checked, so acked version v implies
     the member holds every version <= v). *)
  mutable cn_acked : int;
  (* Learner/voter switch: a member that just revived or was deposed is
     not caught up; it neither gates the ack quorum nor is eligible for
     promotion until replication brings it back to the log head. *)
  mutable cn_caught_up : bool;
  (* Standby-side failure detection: when this member last heard the
     primary answer a heartbeat. *)
  mutable cn_last_heard : float;
  (* Election state (docs/PROTOCOL.md, "Control plane"): the highest
     epoch this member granted a vote for, and to whom. One vote per
     target epoch — re-granted only to the same candidate (Raft). *)
  mutable cn_vote_epoch : int;
  mutable cn_vote_for : int;
  mutable cn_retry_after : float;  (* no new candidacy until after this time *)
  (* Primary-side voter lease: when this member last acknowledged a
     replication push to a primary. A voter silent beyond
     [Config.voter_lease_ms] while decisions are outstanding is demoted
     to learner so it stops gating the ack quorum. *)
  mutable cn_last_ack : float;
}

type decision =
  | Commit of { version : int; epoch : int; global_commit : unit Sim.Ivar.t option }
  | Abort
  | Overloaded
  | Expired

(* One queued certification request. Requests enter [pending] in the same
   order their processes queue on the CPU (there is no suspension point
   between the two), so the queue head always belongs to the next waiter
   to acquire — the invariant group certification relies on. *)
type request = {
  req_origin : int;
  req_snapshot : int;
  req_ws : Storage.Writeset.t;
  req_trace : (int * Obs.Span.t option) option;
  req_span : Obs.Span.t option;
  req_arrival : float;
  req_deadline : float;  (* virtual-time drop-dead point; infinity = none *)
  req_decided : decision Sim.Ivar.t;
}

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  rng : Util.Rng.t;
  network : Sim.Network.t;
  mode : Consistency.mode;
  obs : Obs.Trace.t option;
  metrics : Metrics.t option;
  cpu : Sim.Resource.t;
  pending : request Queue.t;  (* undecided requests, CPU-queue order *)
  nodes : cnode array;  (* member 0 first; length certifier_standbys + 1 *)
  mutable primary : int;  (* index of the member currently holding the role *)
  mutable epoch : int;  (* the ruling epoch = current primary's epoch *)
  mutable epoch_base : int;  (* log head of the current primary at its promotion *)
  (* (epoch, base) for every promotion, newest first: a rejoining member
     reconciles by truncating to the base of the first epoch after its
     own (everything beyond it belongs to a dead history). *)
  mutable epoch_starts : (int * int) list;
  (* The certification index over the retained log of the current
     primary, keyed by the replication group's intern table. *)
  index : Index.t;
  (* Highest version each subscribed replica reported applied — the
     piggybacked V_local watermarks driving log truncation ({!gc}). *)
  watermarks : int Itbl.t;
  (* Virtual time we last heard anything from each replica (request,
     ack, heartbeat, subscription) — drives eviction of corpses. *)
  last_heard : float Itbl.t;
  (* Replicas whose watermark entry was evicted; they must state-transfer
     on rejoin (the log may have been truncated past their position). *)
  evicted : unit Itbl.t;
  held : int Itbl.t;  (* each replica's heartbeat {!Replica.held} *)
  repair_seen : (int * int) Itbl.t;  (* (held, log head) at the last repair tick *)
  subscribers :
    (epoch:int -> (int option * int * Storage.Writeset.t) list -> unit) Itbl.t;
  live : unit Itbl.t;
  eager_pending : eager_state Itbl.t;  (* keyed by version *)
  revive : Sim.Condition.t;  (* outage gate: primary crashed -> promoted *)
  repl_wake : Sim.Condition.t;  (* kicks the per-standby replication pushers *)
  repl_done : Sim.Condition.t;  (* standby acks arrived / promotion happened *)
  mutable promotions : int;
  mutable fenced : int;  (* stale-epoch messages/decisions rejected *)
  mutable elections : int;  (* vote rounds started *)
  mutable vote_denials : int;  (* votes refused (log behind, stale target) *)
  mutable lease_expiries : int;  (* voters demoted to learner by the lease *)
  mutable commits : int;
  mutable aborts : int;
  mutable shed : int;  (* refused by the bounded backlog (cert_queue_bound) *)
  mutable expired : int;  (* dropped with their deadline already passed *)
  mutable retransmits : int;
  mutable evictions : int;
  mutable faults : Sim.Faults.t option;  (* gray-failure slowdown windows *)
}

let primary_node t = t.nodes.(t.primary)

let head n = Log.head n.cn_log

let version t = head (primary_node t)

let log_base t = Log.base (primary_node t).cn_log

let cpu t = t.cpu

let log_size t = version t - log_base t

let group_size t = Array.length t.nodes

let primary_index t = t.primary

let primary_net t = (primary_node t).cn_net

let current_epoch t = t.epoch

let epoch_base t = t.epoch_base

let node_version t k = head t.nodes.(k)

let node_epoch t k = t.nodes.(k).cn_epoch

let node_acked t k = t.nodes.(k).cn_acked

let set_faults t faults = t.faults <- Some faults

let fenced t = t.fenced

let promotions t = t.promotions

let elections t = t.elections

let vote_denials t = t.vote_denials

let lease_expiries t = t.lease_expiries

let shed t = t.shed

let expired t = t.expired

let backlog t = Queue.length t.pending

(* Replication lag of the slowest non-crashed standby behind the
   primary's log head (0 with no standbys). *)
let standby_lag t =
  let p = primary_node t in
  Array.fold_left
    (fun acc n ->
      if n.cn_index <> t.primary && not n.cn_crashed then
        max acc (head p - n.cn_acked)
      else acc)
    0 t.nodes

(* Retained log of one member — the chaos harness scans these for
   decision divergence across the group. *)
let node_log t k =
  let log = t.nodes.(k).cn_log in
  Log.entries log ~after:(Log.base log) ~upto:(Log.head log)

let note_heard t replica =
  Itbl.replace t.last_heard replica (Sim.Engine.now t.engine)

let subscribe t ~replica deliver =
  Itbl.replace t.subscribers replica deliver;
  Itbl.replace t.live replica ();
  note_heard t replica;
  if not (Itbl.mem t.watermarks replica) then Itbl.replace t.watermarks replica 0

let service_time t base =
  let base =
    if t.cfg.Config.service_jitter then base *. Util.Rng.exponential t.rng ~mean:1.0
    else base
  in
  match t.faults with
  | None -> base
  | Some f -> base *. Sim.Faults.slowdown f ~node:(primary_net t)

let index_size t = Index.size t.index

let intern t = Index.intern t.index

(* --- Applied-version watermarks ------------------------------------

   Replicas piggyback their applied V_local on certification requests
   and on the per-version commit acks ({!ack}); the certifier keeps the
   highest value seen per replica. The minimum over *live* replicas is
   the principled truncation horizon: every live replica has applied
   everything at or below it, so only a slack for in-flight snapshots
   need be retained ({!gc}). The minimum over *all* subscribed replicas
   (crashed ones freeze their watermark, and V_local is durable across
   replica crashes) is a permanent lower bound on every replica's
   applied version — the load balancer uses it to drop session-version
   entries that can no longer cause a wait. *)

(* Drop [replica] from every pending eager wait on a version <= [upto].
   The waits it was the last holdout of complete: they leave the table
   and their [done_] fills — ascending by version when [ordered], else
   in table order. *)
let release_eager t ~replica ~upto ~ordered =
  if Itbl.length t.eager_pending > 0 then begin
    let completed = ref [] in
    Itbl.iter
      (fun v state ->
        if v <= upto && Itbl.mem state.waiting_on replica then begin
          Itbl.remove state.waiting_on replica;
          if Itbl.length state.waiting_on = 0 then completed := (v, state) :: !completed
        end)
      t.eager_pending;
    List.iter
      (fun (v, state) ->
        Itbl.remove t.eager_pending v;
        Sim.Ivar.fill state.done_ ())
      (if ordered then List.sort compare !completed else !completed)
  end

(* Watermarks are cumulative acknowledgements: a replica reporting
   applied version [v] has applied every version <= v, so any eager
   transaction still waiting on that replica for a version <= v is
   acknowledged too — the per-version ack included. Under message loss
   this is what lets a later heartbeat stand in for a lost ack instead
   of wedging the eager commit. *)
let observe_applied t ~replica ~version =
  note_heard t replica;
  (match Itbl.find_opt t.watermarks replica with
  | Some w when w >= version -> ()
  | Some _ | None -> Itbl.replace t.watermarks replica version);
  release_eager t ~replica ~upto:version ~ordered:true

let heartbeat t ~replica ~applied ~held =
  Itbl.replace t.held replica held;
  observe_applied t ~replica ~version:applied

let ack = observe_applied

let watermark t ~replica = Option.value (Itbl.find_opt t.watermarks replica) ~default:0

let min_live_watermark t =
  if Itbl.length t.live = 0 then None
  else
    Some (Itbl.fold (fun replica () acc -> min acc (watermark t ~replica)) t.live max_int)

let min_watermark t =
  if Itbl.length t.watermarks = 0 then 0
  else Itbl.fold (fun _ w acc -> min acc w) t.watermarks max_int

(* --- Group replication, epochs and promotion ------------------------

   Every commit decision travels to each standby as an addressed,
   fault-injectable network message and is only released to the
   originating replica once [Config.standby_ack_quorum] standbys have
   acknowledged their copy. Promotion bumps the epoch; every
   certifier-originated message (replication pushes, refresh batches,
   repair streams, decisions) carries the epoch of the primary that
   produced it and is fenced — dropped and counted — when it arrives
   from a dead epoch. A deposed primary reconciles by truncating its log
   to the promotion point of the epoch that superseded it and rejoins
   the group as a standby. *)

let note_fenced t = t.fenced <- t.fenced + 1

(* The log position a member on [from_epoch] must truncate to before
   adopting a later epoch: the base of the first promotion after its
   epoch (everything it logged beyond that point belongs to a history
   that lost). *)
let reconcile_base t ~from_epoch =
  List.fold_left
    (fun acc (e, base) -> if e > from_epoch then min acc base else acc)
    max_int t.epoch_starts

let truncate_node n ~upto =
  if head n > upto then begin
    Log.truncate n.cn_log ~upto;
    n.cn_acked <- min n.cn_acked (head n)
  end

(* Adopt a newer epoch: log reconciliation (truncate the dead-history
   tail), then mark the member a learner until replication catches it
   back up to the ruling log head. *)
let adopt_epoch t n ~epoch =
  if epoch > n.cn_epoch then begin
    truncate_node n ~upto:(reconcile_base t ~from_epoch:n.cn_epoch);
    n.cn_epoch <- epoch;
    (* Caught up means at the ruling log HEAD, not merely at the epoch
       base: the base only bounds what the previous epoch released, so a
       member reconciled down to it may still trail the release point by
       an arbitrary margin. Granting it voter and candidate rights there
       would let it win a later election with a stale log and re-assign
       versions the ruling primary already released. *)
    n.cn_caught_up <- epoch = t.epoch && head n >= head (primary_node t)
  end

(* Voter set for the ack quorum and for promotion: non-crashed members
   of the ruling epoch that are caught up to the log head. *)
let eligible_standby t n =
  n.cn_index <> t.primary && (not n.cn_crashed) && n.cn_epoch = t.epoch && n.cn_caught_up

let quorum_met t ~target =
  let eligible = ref 0 and acked = ref 0 in
  Array.iter
    (fun n ->
      if eligible_standby t n then begin
        incr eligible;
        if n.cn_acked >= target then incr acked
      end)
    t.nodes;
  let need =
    if t.cfg.Config.standby_ack_quorum <= 0 then !eligible
    else min !eligible t.cfg.Config.standby_ack_quorum
  in
  !acked >= need

(* Promote member [k]: bump the epoch, adopt its log as the ruling
   history, rebuild the certification index from it, and wake every
   queued certification request. The promotion point ([epoch_base])
   fences the deposed primary: decisions it assigned beyond it are
   rejected everywhere and truncated at reconciliation. *)
let promote t k =
  let np = t.nodes.(k) in
  assert (not np.cn_crashed);
  let now = Sim.Engine.now t.engine in
  let outage_ms = now -. np.cn_last_heard in
  let epoch = 1 + Array.fold_left (fun acc n -> max acc n.cn_epoch) t.epoch t.nodes in
  np.cn_epoch <- epoch;
  np.cn_acked <- head np;
  np.cn_caught_up <- true;
  t.epoch <- epoch;
  t.epoch_base <- head np;
  t.epoch_starts <- (epoch, head np) :: t.epoch_starts;
  t.primary <- k;
  (* Every other member must reconcile against the new history before it
     votes again; pushes and heartbeat pongs carry the epoch to them. A
     fresh promotion is contact: a grace period for the other detectors
     and the voter lease. *)
  Array.iter
    (fun n ->
      if n.cn_index <> k then n.cn_caught_up <- false;
      n.cn_last_heard <- now;
      n.cn_last_ack <- now)
    t.nodes;
  Index.rebuild t.index np.cn_log;
  Itbl.reset t.repair_seen;
  t.promotions <- t.promotions + 1;
  (match t.metrics with
  | Some m -> Metrics.note_promotion m ~outage_ms
  | None -> ());
  Sim.Condition.broadcast t.revive;
  Sim.Condition.broadcast t.repl_done;
  Sim.Condition.broadcast t.repl_wake

(* The per-member replication pusher: whenever the ruling primary's log
   is ahead of this member's acknowledged position, capture the missing
   suffix, ship it as an addressed stop-and-wait transfer (retransmitted
   by the network layer under loss, blocked by partitions), append it —
   contiguity-checked and epoch-fenced — at the member, and return an
   acknowledgement carrying the member's log head. A member whose gap
   reaches below the primary's pruned log horizon is reprovisioned with
   a full snapshot of the retained log instead. *)
let pusher t k =
  let sb = t.nodes.(k) in
  let rec loop () =
    Sim.Condition.await t.repl_wake (fun () ->
        t.primary <> k
        && (not sb.cn_crashed)
        && (not (primary_node t).cn_crashed)
        && (head (primary_node t) > sb.cn_acked || sb.cn_epoch < t.epoch));
    let p = primary_node t in
    let push_epoch = p.cn_epoch in
    let target = head p in
    (* Capture the payload at send time: the log may be pruned, extended
       or even superseded while the message is in flight. *)
    let snapshot_base, payload =
      let base = Log.base p.cn_log in
      if sb.cn_acked < base then
        (* Below the pruned horizon: full state transfer of the retained
           log (base marker + entries). *)
        (Some base, Log.entries p.cn_log ~after:base ~upto:target)
      else (None, Log.entries p.cn_log ~after:sb.cn_acked ~upto:target)
    in
    let size_bytes =
      List.fold_left
        (fun acc (_, ws) -> acc + Storage.Codec.writeset_bytes ws)
        0 payload
      + 32
    in
    (* Data leg: persistent stop-and-wait — each lost attempt costs one
       retransmission timeout; a partition blocks the pusher until it
       heals (durability cannot be faked past a cut). *)
    Sim.Network.transfer t.network ~src:p.cn_net ~dst:sb.cn_net ~size_bytes;
    if not sb.cn_crashed then begin
      if push_epoch < sb.cn_epoch then
        (* A deposed primary's late replication push: fenced. *)
        note_fenced t
      else begin
        adopt_epoch t sb ~epoch:push_epoch;
        (* Replication traffic from the ruling primary is proof of life:
           restart the suspicion window so a member that just finished
           reconciling cannot fire on silence accumulated while it was
           still an ineligible learner. *)
        if push_epoch = t.epoch then sb.cn_last_heard <- Sim.Engine.now t.engine;
        (match snapshot_base with
        | Some base when base > head sb ->
          Log.install_snapshot sb.cn_log ~base;
          sb.cn_acked <- min sb.cn_acked base
        | Some _ | None -> ());
        List.iter (fun (v, ws) -> Log.append_at sb.cn_log v ws) payload
      end;
      (* Ack leg: carries the member's log head and epoch back to the
         sender — also how a deposed primary first learns it lost. *)
      let acked = head sb and acked_epoch = sb.cn_epoch in
      Sim.Network.transfer t.network ~src:sb.cn_net ~dst:p.cn_net ~size_bytes:24;
      if not p.cn_crashed then begin
        if acked_epoch > p.cn_epoch then adopt_epoch t p ~epoch:acked_epoch;
        (* Apply the ack only if the member is still in the epoch that
           produced it: a reconciliation while the ack was in flight
           truncated the very entries it covers, and replaying the stale
           position would claim durability for log the member no longer
           holds. Within one epoch the assignment is absolute and
           self-correcting (the head can legitimately move backwards). *)
        if acked_epoch = sb.cn_epoch then begin
          sb.cn_acked <- acked;
          (* Any ack renews the voter lease; reaching the ruling head
             (re-)admits a learner to the voter set — the lease demotion
             heals itself through the ordinary catch-up path. *)
          sb.cn_last_ack <- Sim.Engine.now t.engine;
          if sb.cn_epoch = t.epoch && sb.cn_acked >= head (primary_node t) then
            sb.cn_caught_up <- true
        end;
        Sim.Condition.broadcast t.repl_done
      end
    end;
    loop ()
  in
  loop ()

(* --- Quorum-intersecting elections ----------------------------------

   Promotion is decided by an explicit vote round, not by the suspecting
   standby alone (docs/PROTOCOL.md, "Control plane"). A candidate needs

     max( |voters| / 2 + 1,                          Raft majority
          standby_voters - ack_quorum + 1 )          quorum intersection

   votes for a bumped target epoch, where the voters are the caught-up
   members of the ruling epoch (learners excluded; the crashed primary
   still counts in the denominators — it just cannot grant, which only
   raises the bar). A voter refuses any candidate whose log head is
   behind its own, and grants at most one candidate per target epoch.

   Safety: a released version [v] was acknowledged by at least
   [ack_quorum] caught-up standbys before release ({!quorum_met}), and
   any member that became caught up later first acked the full log
   through [v]. A winning candidate collected grants from at least
   [standby_voters - ack_quorum + 1] standby voters, a set that
   intersects every [ack_quorum]-sized holder set — so some granting
   voter holds [v], and its grant proves the candidate's head is at
   least [v]. {!promote} then re-derives the epoch base from that head:
   no released version can be re-assigned, under any
   [Config.standby_ack_quorum]. The majority requirement additionally
   makes concurrent candidates for one target epoch mutually exclusive.

   Liveness: the old rank stagger survives as a {e candidacy} stagger —
   the best-replicated standby starts (and normally wins) the first
   round uncontested; a loser's next monitor tick simply runs a fresh
   round at a higher target. *)

(* Group timers (docs/TUNING.md, "Fixed protocol timings"). Suspicion
   takes four missed pongs, so one lost ping never starts an election;
   each better-replicated peer adds one heartbeat of backoff, so the best
   copy usually wins uncontested; a vote round spans dozens of LAN RTTs. *)
let heartbeat_ms = 10.0
let suspect_after_ms = 40.0
let promotion_backoff_ms = 10.0
let election_timeout_ms = 15.0

let voting_member t n = n.cn_epoch = t.epoch && n.cn_caught_up

let votes_needed t =
  let voters = ref 0 and standby_voters = ref 0 in
  Array.iter
    (fun n ->
      if voting_member t n then begin
        incr voters;
        if n.cn_index <> t.primary then incr standby_voters
      end)
    t.nodes;
  let majority = (!voters / 2) + 1 in
  let q = t.cfg.Config.standby_ack_quorum in
  let q_eff = if q <= 0 then !standby_voters else min q !standby_voters in
  max majority (!standby_voters - q_eff + 1)

(* Eligible standbys with a better log than member [k] (index breaks
   ties): the best-replicated one has rank 0. *)
let promotion_rank t k =
  let sk = t.nodes.(k) in
  let r = ref 0 in
  Array.iter
    (fun n ->
      if
        n.cn_index <> k && eligible_standby t n
        && (head n > head sk || (head n = head sk && n.cn_index < k))
      then incr r)
    t.nodes;
  !r

let note_vote_denial t = t.vote_denials <- t.vote_denials + 1

(* One vote round run by suspecting standby [k]. Ballots travel as
   fire-and-forget messages (a partitioned or crashed voter simply never
   answers); the candidate sleeps the election timeout, tallies, and
   promotes only if the grant set suffices {e and} the world did not
   move on — a revived primary, an adopted newer epoch or a concurrent
   winner all cancel the round. *)
let run_election t k =
  let sb = t.nodes.(k) in
  let pi = t.primary in
  (* The ballot must exceed not only every epoch but every ballot any
     member has voted in: a retry after a split or failed round gets a
     strictly fresher target, so stale self-votes can never pin the
     group at an unwinnable ballot. *)
  let target =
    1
    + Array.fold_left
        (fun acc n -> max acc (max n.cn_epoch n.cn_vote_epoch))
        t.epoch t.nodes
  in
  let my_version = head sb in
  t.elections <- t.elections + 1;
  (* The candidate votes for itself (and thereby refuses any concurrent
     candidate for the same target). *)
  sb.cn_vote_epoch <- target;
  sb.cn_vote_for <- k;
  let votes = ref 1 in
  Array.iter
    (fun m ->
      if m.cn_index <> k then
        Sim.Network.send t.network ~src:sb.cn_net ~dst:m.cn_net ~size_bytes:24 (fun () ->
            if not m.cn_crashed then begin
              let grant =
                voting_member t m && target > t.epoch
                && (target > m.cn_vote_epoch
                   || (target = m.cn_vote_epoch && m.cn_vote_for = k))
                && my_version >= head m
              in
              if grant then begin
                m.cn_vote_epoch <- target;
                m.cn_vote_for <- k;
                Sim.Network.send t.network ~src:m.cn_net ~dst:sb.cn_net ~size_bytes:16
                  (fun () -> if not sb.cn_crashed then incr votes)
              end
              else note_vote_denial t
            end))
    t.nodes;
  Sim.Process.sleep t.engine election_timeout_ms;
  if
    !votes >= votes_needed t
    && t.epoch < target && t.primary = pi
    && (not sb.cn_crashed)
    && sb.cn_epoch = t.epoch && sb.cn_caught_up
    && (t.nodes.(pi).cn_crashed
       || Sim.Engine.now t.engine -. sb.cn_last_heard > suspect_after_ms)
  then promote t k
  else
    (* A lost round restarts the candidacy stagger. Two candidates whose
       suspicion windows closed on one tick would otherwise retry in
       step, and the worse-replicated one's fresher ballot would deny the
       better one forever, while its own log denies it every vote. *)
    sb.cn_retry_after <-
      Sim.Engine.now t.engine +. (float_of_int (promotion_rank t k) *. promotion_backoff_ms)

(* The standby-side failure detector: ping the primary every
   [heartbeat_ms]; the pong carries the primary's epoch. After
   [suspect_after_ms] of silence plus a per-rank candidacy backoff
   (best replicated log first, index breaking ties), the standby starts
   a vote round. Only caught-up members of the ruling epoch are
   candidates: a member that has not reconciled could resurrect a dead
   history. *)
let monitor t k =
  let sb = t.nodes.(k) in
  Sim.Process.every t.engine ~period:heartbeat_ms (fun () ->
      if t.primary = k || sb.cn_crashed then
        (* A primary does not monitor itself; a crashed member is blind.
           Keep the clock fresh so a later role change starts a new
           suspicion window instead of inheriting ancient silence. *)
        sb.cn_last_heard <- Sim.Engine.now t.engine
      else begin
        let pi = t.primary in
        let p = t.nodes.(pi) in
        Sim.Network.send t.network ~src:sb.cn_net ~dst:p.cn_net ~size_bytes:16 (fun () ->
            if not p.cn_crashed then begin
              let pong_epoch = p.cn_epoch in
              Sim.Network.send t.network ~src:p.cn_net ~dst:sb.cn_net ~size_bytes:16
                (fun () ->
                  if not sb.cn_crashed then begin
                    sb.cn_last_heard <- Sim.Engine.now t.engine;
                    if pong_epoch > sb.cn_epoch then adopt_epoch t sb ~epoch:pong_epoch
                  end)
            end);
        let now = Sim.Engine.now t.engine in
        let silence = now -. sb.cn_last_heard in
        let deadline =
          suspect_after_ms +. (float_of_int (promotion_rank t k) *. promotion_backoff_ms)
        in
        if
          silence > deadline && now > sb.cn_retry_after && t.primary = pi
          && (not sb.cn_crashed)
          && sb.cn_epoch = t.epoch && sb.cn_caught_up
        then run_election t k
      end)

(* Primary-side voter lease (docs/PROTOCOL.md, "Control plane"): a voter
   that has stopped acknowledging replication while the primary has
   decisions outstanding is demoted to learner after
   [Config.voter_lease_ms] of ack silence, so a partitioned-but-alive
   voter stalls a [standby_ack_quorum = all] commit for at most one
   lease window instead of forever. Demotion shrinks durability breadth,
   never safety: {!votes_needed} is computed over the voter set as it
   stands, and the demoted member re-enters it through the ordinary
   learner catch-up path (its next ack run reaching the log head). *)
let lease_loop t =
  let lease = t.cfg.Config.voter_lease_ms in
  Sim.Process.every t.engine ~period:(lease /. 4.0) (fun () ->
      let p = primary_node t in
      if not p.cn_crashed then begin
        let now = Sim.Engine.now t.engine in
        Array.iter
          (fun n ->
            if eligible_standby t n && n.cn_acked < head p
               && now -. n.cn_last_ack > lease
            then begin
              n.cn_caught_up <- false;
              t.lease_expiries <- t.lease_expiries + 1;
              (* The quorum wait recomputes its need over the shrunken
                 voter set: this is what unblocks the stalled release. *)
              Sim.Condition.broadcast t.repl_done
            end)
          t.nodes
      end)

let create ?obs ?metrics ?intern engine cfg ~rng ~network ~mode =
  let t =
    {
      engine;
      cfg;
      rng;
      network;
      mode;
      obs;
      metrics;
      cpu = Sim.Resource.create engine ~servers:1;
      pending = Queue.create ();
      nodes =
        Array.init
          (cfg.Config.certifier_standbys + 1)
          (fun k ->
            {
              cn_index = k;
              cn_net = Config.node_cert_standby k;
              cn_log = Log.create ();
              cn_epoch = 0;
              cn_crashed = false;
              cn_acked = 0;
              cn_caught_up = true;
              cn_last_heard = Sim.Engine.now engine;
              cn_vote_epoch = 0;
              cn_vote_for = -1;
              cn_retry_after = neg_infinity;
              cn_last_ack = Sim.Engine.now engine;
            });
      primary = 0;
      epoch = 0;
      epoch_base = 0;
      epoch_starts = [];
      index = Index.create ?intern ();
      watermarks = Itbl.create 16;
      last_heard = Itbl.create 16;
      evicted = Itbl.create 4;
      held = Itbl.create 16;
      repair_seen = Itbl.create 16;
      subscribers = Itbl.create 16;
      live = Itbl.create 16;
      eager_pending = Itbl.create 64;
      revive = Sim.Condition.create engine;
      repl_wake = Sim.Condition.create engine;
      repl_done = Sim.Condition.create engine;
      promotions = 0;
      fenced = 0;
      elections = 0;
      vote_denials = 0;
      lease_expiries = 0;
      commits = 0;
      aborts = 0;
      shed = 0;
      expired = 0;
      retransmits = 0;
      evictions = 0;
      faults = None;
    }
  in
  (* With no standbys nothing below spawns: zero extra processes, zero
     extra events, zero extra random draws — runs with
     [certifier_standbys = 0] are event-identical to the single-node
     certifier (pinned by the golden tests). *)
  if Array.length t.nodes > 1 then begin
    for k = 0 to Array.length t.nodes - 1 do
      Sim.Process.spawn engine (fun () -> pusher t k)
    done;
    for k = 0 to Array.length t.nodes - 1 do
      monitor t k
    done;
    if cfg.Config.voter_lease_ms > 0.0 then lease_loop t
  end;
  t

(* Quorum-gated durability: a batch's decisions are released only once
   the required number of caught-up standbys hold them. The wait also
   wakes on promotion, so a deposed primary's batch is not stuck behind
   acks that will never come — its decisions are then fenced or
   reconciled below. *)
let await_standby_quorum t ~me ~target =
  if Array.length t.nodes > 1 then begin
    Sim.Condition.broadcast t.repl_wake;
    Sim.Condition.await t.repl_done (fun () -> t.primary <> me || quorum_met t ~target)
  end

(* Decide: certify the members in arrival order against member [me]'s
   log; its log and the index grow incrementally, so later members are
   checked against earlier ones. The first member pays the fixed
   certification cost, subsequent members only their per-row scan (the
   single pass over the log is shared). The index belongs to the ruling
   primary: a member deposed mid-batch keeps assigning versions on its
   own (doomed) log but must not pollute the rebuilt index. *)
let decide_batch t ~me batch =
  let p = t.nodes.(me) in
  List.mapi
    (fun i r ->
      let rows = Storage.Writeset.cardinal r.req_ws in
      let cost =
        (if i = 0 then t.cfg.Config.certify_base_ms else 0.0)
        +. (float_of_int rows *. t.cfg.Config.certify_row_ms)
      in
      Sim.Process.sleep t.engine (service_time t cost);
      let v =
        Certification.decide ~record:(t.primary = me) p.cn_log t.index
          ~snapshot:r.req_snapshot r.req_ws
      in
      (match v with
      | None -> t.aborts <- t.aborts + 1
      | Some _ -> t.commits <- t.commits + 1);
      (r, v))
    batch

(* Durable: decisions are durable before anyone learns about them — one
   log force plus the standby ack quorum per batch with a commit. *)
let make_durable t ~me committed =
  if committed <> [] then begin
    Sim.Process.sleep t.engine (service_time t t.cfg.Config.durability_ms);
    await_standby_quorum t ~me ~target:(head t.nodes.(me))
  end

let trace_decisions t ~batch_start results =
  match t.obs with
  | None -> ()
  | Some _ ->
    List.iter
      (fun (r, v) ->
        let queue_ms = batch_start -. r.req_arrival in
        let decision_args =
          match v with
          | None -> [ ("decision", "abort") ]
          | Some v -> [ ("decision", "commit"); ("version", string_of_int v) ]
        in
        Obs.Trace.finish_opt t.obs r.req_span
          ~args:(decision_args @ [ ("queue_ms", Printf.sprintf "%.3f" queue_ms) ]))
      results

(* Fence: if a promotion happened while the batch was waiting on its
   quorum, only the versions that made it into the new primary's history
   (<= the promotion point) survive as commits; the rest died with the
   old epoch and are aborted (and truncated from the deposed log at
   reconciliation). Returns the highest surviving version. *)
let fence_horizon t ~me = if t.primary <> me then t.epoch_base else max_int

(* Wire size of one refresh batch message. *)
let refresh_bytes items =
  List.fold_left (fun acc (_, _, ws) -> acc + Storage.Codec.writeset_bytes ws) 0 items + 64

(* Refresh fan-out: one refresh batch message per replica; each commit
   is withheld from its own origin (the origin installed the writeset
   locally at commit time). The refresh carries each committing
   transaction's trace id and the ruling epoch, so the remote applies
   land in the same trace and stale-epoch stragglers can be fenced at
   the replica. *)
let fan_out_refresh t refreshable =
  if refreshable <> [] then begin
    let refresh_epoch = t.epoch and refresh_src = primary_net t in
    Itbl.iter
      (fun replica deliver ->
        if Itbl.mem t.live replica then begin
          let items =
            List.filter_map
              (fun (r, v) ->
                if r.req_origin <> replica then
                  Some (Option.map fst r.req_trace, v, r.req_ws)
                else None)
              refreshable
          in
          if items <> [] then
            Sim.Network.send t.network ~src:refresh_src ~dst:replica
              ~size_bytes:(refresh_bytes items)
              (fun () -> deliver ~epoch:refresh_epoch items)
        end)
      t.subscribers
  end

(* Release: fill every member's decision. Under eager a commit also
   carries the global-commit wait on every live replica's ack. *)
let release_decisions t ~horizon results =
  List.iter
    (fun (r, v) ->
      let decision =
        match v with
        | None -> Abort
        | Some v when v > horizon ->
          (* Fenced: the decision was assigned by a deposed primary and
             never reached the quorum — it is not in the surviving
             history, so the client must retry against the new one. *)
          note_fenced t;
          t.commits <- t.commits - 1;
          t.aborts <- t.aborts + 1;
          Abort
        | Some v ->
          let global_commit =
            match t.mode with
            | Consistency.Eager ->
              let waiting_on = Itbl.create 8 in
              Itbl.iter (fun replica () -> Itbl.replace waiting_on replica ()) t.live;
              let done_ = Sim.Ivar.create t.engine in
              if Itbl.length waiting_on = 0 then Sim.Ivar.fill done_ ()
              else Itbl.replace t.eager_pending v { waiting_on; done_ };
              Some done_
            | Consistency.Coarse | Consistency.Fine | Consistency.Session
            | Consistency.Bounded _ -> None
          in
          Commit { version = v; epoch = t.epoch; global_commit }
      in
      Sim.Ivar.fill r.req_decided decision)
    results

(* Certify one drained batch, holding the CPU until it is durable:
   decide -> durable -> trace and fence -> refresh fan-out -> release. *)
let process_batch t batch =
  let batch_start = Sim.Engine.now t.engine in
  (match t.metrics with
  | Some m -> Metrics.note_cert_batch m ~size:(List.length batch)
  | None -> ());
  let me = t.primary in
  let results = decide_batch t ~me batch in
  let committed = List.filter_map (fun (r, v) -> Option.map (fun v -> (r, v)) v) results in
  make_durable t ~me committed;
  Sim.Resource.release t.cpu;
  trace_decisions t ~batch_start results;
  let horizon = fence_horizon t ~me in
  fan_out_refresh t (List.filter (fun (_, v) -> v <= horizon) committed);
  release_decisions t ~horizon results

(* Admission: queue the request behind any certifier outage, then on the
   CPU. The service span covers outage queueing, CPU queueing and the
   certification work itself; [queue_ms] separates the wait. *)
let admit ?trace t ~origin ~snapshot ~ws ~deadline =
  let span =
    match trace with
    | Some (trace_id, parent) ->
      Obs.Trace.start_opt t.obs ~trace_id ~parent ~component:Obs.Span.Certifier
        ~name:"certify"
        ~args:
          [
            ("origin", string_of_int origin);
            ("snapshot", string_of_int snapshot);
            ("rows", string_of_int (Storage.Writeset.cardinal ws));
          ]
        ()
    | None -> None
  in
  let arrival = Sim.Engine.now t.engine in
  (* During a certifier outage, requests queue until a promotion. The
     revive broadcast wakes the waiters in arrival order, so the queue
     drains into [pending] exactly as it formed. *)
  Sim.Condition.await t.revive (fun () -> not (primary_node t).cn_crashed);
  let request =
    {
      req_origin = origin;
      req_snapshot = snapshot;
      req_ws = ws;
      req_trace = trace;
      req_span = span;
      req_arrival = arrival;
      req_deadline = deadline;
      req_decided = Sim.Ivar.create t.engine;
    }
  in
  Queue.add request t.pending;
  (if t.cfg.Config.cert_queue_bound > 0 then
     match t.metrics with
     | Some m -> Metrics.note_queue_depth m (Queue.length t.pending)
     | None -> ());
  Sim.Resource.acquire t.cpu;
  request

(* Group commit: the first undecided waiter to win the CPU is the
   leader; it drains up to [cert_batch] queued requests (its own is at
   the queue head) and decides them in one pass. Members wake from the
   CPU queue to find their decision already made and just hand the CPU
   on. With [cert_batch = 1] the leader drains exactly itself and the
   event sequence is identical to unbatched certification. *)
let lead t request =
  if Sim.Ivar.is_filled request.req_decided then Sim.Resource.release t.cpu
  else begin
    let cap = max 1 t.cfg.Config.cert_batch in
    (* The leader's own request is at the queue head: [pending] order is
       CPU-queue order, and every request ahead of this one was drained
       (and decided) by an earlier leader. *)
    let first = Queue.pop t.pending in
    assert (first == request);
    let rec drain acc n =
      if n >= cap || Queue.is_empty t.pending then List.rev acc
      else drain (Queue.pop t.pending :: acc) (n + 1)
    in
    let batch = drain [ first ] 1 in
    (* Deadline propagation: a drained request whose deadline has passed
       while it queued is answered [Expired] here — before the conflict
       check, so it can never also commit — and drops out of the batch
       rather than consuming certification work. *)
    let now = Sim.Engine.now t.engine in
    let live, dead = List.partition (fun r -> r.req_deadline >= now) batch in
    List.iter
      (fun r ->
        t.expired <- t.expired + 1;
        Obs.Trace.finish_opt t.obs r.req_span ~args:[ ("decision", "expired") ];
        Sim.Ivar.fill r.req_decided Expired)
      dead;
    match live with
    | [] -> Sim.Resource.release t.cpu
    | live -> process_batch t live
  end

let certify ?trace ?applied ?(deadline = infinity) t ~origin ~snapshot ~ws =
  (* Watermark piggyback: the origin's applied V_local rides on the
     certification request (no extra message, no virtual time). *)
  (match applied with
  | Some version -> observe_applied t ~replica:origin ~version
  | None -> ());
  (* Bounded backlog (Config.cert_queue_bound): a request arriving at a
     full pending queue is refused on the spot — no CPU queueing, no log
     work, no virtual time — so the backlog (and the latency it would
     add to every admitted request) stays bounded. Expired work is
     likewise dropped before it queues. Both answers happen strictly
     before any decision is made for the request, so a refused
     transaction can never also commit. *)
  let bound = t.cfg.Config.cert_queue_bound in
  if bound > 0 && Queue.length t.pending >= bound then begin
    t.shed <- t.shed + 1;
    Overloaded
  end
  else if Sim.Engine.now t.engine > deadline then begin
    t.expired <- t.expired + 1;
    Expired
  end
  else begin
    let request = admit ?trace t ~origin ~snapshot ~ws ~deadline in
    lead t request;
    Sim.Ivar.read request.req_decided
  end

let writesets_from t from =
  let log = (primary_node t).cn_log in
  if from < Log.base log then None
  else Some (Log.entries log ~after:from ~upto:(Log.head log))

let prune t ~keep_after =
  (* Keep versions > keep_after, on every member. The horizon is clamped
     to the slowest non-crashed member's log head so a lagging standby
     can always be caught up from the retained log; a crashed member
     does not pin the horizon (it is reprovisioned by snapshot transfer
     on revival). *)
  let p = primary_node t in
  let keep_after =
    Array.fold_left
      (fun acc n -> if n.cn_crashed then acc else min acc (head n))
      (min keep_after (head p)) t.nodes
  in
  if keep_after > Log.base p.cn_log then begin
    Array.iter (fun n -> Log.prune n.cn_log ~keep_after) t.nodes;
    Index.prune t.index ~keep_after
  end

(* Evict replicas that are down AND silent beyond [evict_after_ms] from
   the watermark table: a corpse's frozen watermark would otherwise pin
   [min_watermark] (session pruning) forever, and — were it still in the
   live set — the GC floor too. An evicted replica's position in the
   refresh stream is forgotten, so it must state-transfer on rejoin
   ({!needs_state_transfer}). Only non-live replicas are candidates: a
   live replica is heard from (heartbeats, acks, requests) and never
   goes silent for that long. *)
let evict_dead t =
  let horizon = t.cfg.Config.evict_after_ms in
  if horizon > 0.0 then begin
    let now = Sim.Engine.now t.engine in
    let victims =
      Itbl.fold
        (fun replica _w acc ->
          let heard = Option.value (Itbl.find_opt t.last_heard replica) ~default:0.0 in
          if (not (Itbl.mem t.live replica)) && now -. heard > horizon then
            replica :: acc
          else acc)
        t.watermarks []
    in
    List.iter
      (fun replica ->
        Itbl.remove t.watermarks replica;
        Itbl.replace t.evicted replica ();
        t.evictions <- t.evictions + 1)
      victims
  end

let needs_state_transfer t ~replica = Itbl.mem t.evicted replica

let evictions t = t.evictions

let gc t =
  (* Watermark-driven truncation: every live replica has applied
     everything ≤ the minimum watermark, so only [watermark_slack]
     versions below it are retained for in-flight stale snapshots.
     No live replicas (or none heard from) ⇒ no truncation. *)
  evict_dead t;
  match min_live_watermark t with
  | None -> ()
  | Some m -> prune t ~keep_after:(max 0 (m - t.cfg.Config.watermark_slack))

let crash t =
  if Array.length t.nodes = 1 then
    invalid_arg "Certifier.crash: no standby configured (the decision log would be lost)";
  (primary_node t).cn_crashed <- true

let is_crashed t = (primary_node t).cn_crashed

let revive_node t k =
  let n = t.nodes.(k) in
  if n.cn_crashed then begin
    n.cn_crashed <- false;
    n.cn_last_heard <- Sim.Engine.now t.engine;
    n.cn_last_ack <- Sim.Engine.now t.engine;
    if t.primary = k then
      (* The primary came back before any promotion: resume the queue. *)
      Sim.Condition.broadcast t.revive
    else begin
      (* Rejoin as a standby: replication reconciles and catches it up. *)
      n.cn_caught_up <- false;
      Sim.Condition.broadcast t.repl_wake
    end
  end

let mark_down t ~replica =
  Itbl.remove t.live replica;
  Itbl.remove t.held replica;
  (* Pending eager transactions stop waiting for the dead replica. *)
  release_eager t ~replica ~upto:max_int ~ordered:false

let mark_up ?applied t ~replica =
  if Itbl.mem t.subscribers replica then begin
    Itbl.replace t.live replica ();
    note_heard t replica;
    if Itbl.mem t.evicted replica then begin
      (* Rejoin after eviction: the replica re-enters the watermark table
         at its state-transferred applied version. Re-entering at 0 —
         the old behaviour — pinned the GC floor at the log base until
         the replica's next heartbeat happened to arrive. *)
      Itbl.remove t.evicted replica;
      Itbl.replace t.watermarks replica (Option.value applied ~default:0)
    end;
    match applied with
    | Some version -> observe_applied t ~replica ~version
    | None -> ()
  end

let is_marked_live t ~replica = Itbl.mem t.live replica

(* --- Refresh repair ---------------------------------------------------

   Refresh messages are fire-and-forget; under a lossy network a replica
   can lose a batch and wedge (its sequencer waits forever for the
   missing version). The repair tick re-sends the log suffix past a live
   subscriber's held version ({!Replica.held}, from its heartbeat, or the
   applied watermark the per-version acks keep fresher) when it lags the
   previous tick's log head and has not moved since: a version released
   a tick ago is missing. A replica merely busy applying a backlog holds
   it, so a fault-free run repairs nothing. Receivers dedup by version
   ({!Replica.receive_refresh_batch}). Repair streams carry the ruling
   epoch and originate from the current primary's endpoint, so a deposed
   primary's stragglers are fenced. *)

let repair_resend_cap = 64
let repair_catchup_cap = 256

let repair_tick t =
  if not (is_crashed t) then begin
    let p = primary_node t in
    let repair_epoch = t.epoch in
    Itbl.iter
      (fun replica deliver ->
        match Itbl.find_opt t.held replica with
        | Some held when Itbl.mem t.live replica -> (
          let w = Stdlib.max held (watermark t ~replica) in
          let seen = Itbl.find_opt t.repair_seen replica in
          Itbl.replace t.repair_seen replica (w, head p);
          match seen with
          | None -> ()
          | Some (w0, head0) ->
            let stalled = w = w0 && w < head0 in
            (* A replica more than one batch behind can never be healed by
               the live refresh stream (broadcasts only cover new versions),
               so stream its suffix on every tick instead of waiting for the
               held version to stall, and in bigger batches. *)
            let deep = head0 - w > repair_resend_cap in
            if (stalled || deep) && w >= Log.base p.cn_log then
              match writesets_from t w with
              | None -> ()
              | Some items ->
                let rec take n = function
                  | x :: rest when n > 0 -> x :: take (n - 1) rest
                  | _ -> []
                in
                let items =
                  take (if deep then repair_catchup_cap else repair_resend_cap) items
                  |> List.map (fun (v, ws) -> (None, v, ws))
                in
                t.retransmits <- t.retransmits + 1;
                Sim.Network.send t.network ~src:p.cn_net ~dst:replica
                  ~size_bytes:(refresh_bytes items)
                  (fun () -> deliver ~epoch:repair_epoch items))
        | Some _ | None -> ())
      t.subscribers
  end

let retransmits t = t.retransmits

let decisions t = (t.commits, t.aborts)
