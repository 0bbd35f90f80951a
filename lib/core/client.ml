type workload = {
  think_ms : Util.Rng.t -> float;
  next_request : Util.Rng.t -> Transaction.request;
}

(* Per-client retry budget (under Config.overload_protection): a token
   bucket of [retry_budget] tokens refilled at [retry_budget_per_s] over
   virtual time, lazily at spend points so it schedules no events of its
   own. The values are the ones the overload soak is pinned at: a
   client rides out a short burst of sheds, and a storm drains the
   bucket in a few retries. [None] (protection off) touches nothing —
   the retry loop is bit-identical to the pre-budget behaviour. *)
let retry_budget = 6.0
let retry_budget_per_s = 2.0

(* The backoff cap: the hardened base of 0.5 ms reaches it after about
   seven doublings, so a client retrying through a long outage still
   probes every ~50 ms. *)
let retry_backoff_max_ms = 50.0

type budget = {
  mutable tokens : float;
  mutable last_ms : float;
}

let budget_of_config (cfg : Config.t) now =
  if cfg.Config.overload_protection then Some { tokens = retry_budget; last_ms = now }
  else None

let budget_take engine = function
  | None -> true
  | Some b ->
    let now = Sim.Engine.now engine in
    b.tokens <-
      Float.min retry_budget
        (b.tokens +. ((now -. b.last_ms) /. 1000.0 *. retry_budget_per_s));
    b.last_ms <- now;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      true
    end
    else false

(* One business action: submit, retry per the abort class, and give up
   cleanly when out of budget. Shared by the closed-loop driver and the
   open-loop per-arrival handlers. *)
let run_transaction cluster ~sid ~rng ~budget request =
  let engine = Cluster.engine cluster in
  let cfg = Cluster.config cluster in
  let give_up () = Metrics.record_retry_exhausted (Cluster.metrics cluster) in
  let give_up_budget () = Cluster.note_retry_budget_exhausted cluster in
  (* Capped jittered exponential backoff before retry number
     [tries] (1-based). With the base at 0 (the default) there is
     no sleep and no RNG draw — the retry loop is event-identical
     to the original immediate-retry behaviour. *)
  let backoff tries =
    let base = cfg.Config.retry_backoff_ms in
    if base > 0.0 then begin
      let cap = Float.max base retry_backoff_max_ms in
      let d = Float.min cap (base *. (2.0 ** float_of_int (tries - 1))) in
      (* ±50% jitter decorrelates colliding retries. *)
      let jittered = d *. (0.5 +. Util.Rng.float rng 1.0) in
      Sim.Process.sleep engine jittered
    end
  in
  (* Abort-reason-aware give-up: certification losses consume the
     retry budget (the workload is conflicting with itself —
     backing off and eventually giving up sheds contention);
     failure-class aborts (replica crash, timeout) are the
     cluster's fault and retry — with backoff — until the cluster
     heals, so committed work is never abandoned to a transient
     outage. Statement errors are permanent and never retried.
     Overload sheds wait out the server's retry-after hint instead
     of the backoff curve. Every retry additionally spends one
     retry-budget token when a budget is configured; an empty
     bucket gives the transaction up rather than amplifying the
     very overload being shed. *)
  (* [tries] is the conflict budget; [total] counts every retry and
     drives the backoff exponent (so repeated transient failures
     still back off exponentially). *)
  let rec attempt ~tries ~total =
    match Cluster.submit cluster ~sid request with
    | Transaction.Committed _ -> ()
    | Transaction.Aborted { reason = Transaction.Statement_error _; _ } ->
      (* A logic error in the workload; retrying cannot help. *)
      give_up ()
    | Transaction.Aborted { reason = Transaction.Overloaded { retry_after_ms }; _ } ->
      if budget_take engine budget then begin
        (* The hint is deterministic on purpose: overload runs stay
           reproducible, and decorrelation comes from each client's
           own position in virtual time. *)
        Sim.Process.sleep engine retry_after_ms;
        attempt ~tries ~total:(total + 1)
      end
      else give_up_budget ()
    | Transaction.Aborted { reason; _ } when Transaction.abort_is_transient reason ->
      if budget_take engine budget then begin
        backoff (total + 1);
        attempt ~tries ~total:(total + 1)
      end
      else give_up_budget ()
    | Transaction.Aborted _ ->
      if tries < cfg.Config.max_retries then begin
        if budget_take engine budget then begin
          backoff (total + 1);
          attempt ~tries:(tries + 1) ~total:(total + 1)
        end
        else give_up_budget ()
      end
      else give_up ()
  in
  attempt ~tries:0 ~total:0

let spawn cluster ~sid ~rng workload =
  let engine = Cluster.engine cluster in
  let cfg = Cluster.config cluster in
  Sim.Process.spawn engine (fun () ->
      let budget = budget_of_config cfg (Sim.Engine.now engine) in
      let rec loop () =
        let think = workload.think_ms rng in
        if think > 0.0 then Sim.Process.sleep engine think;
        let request = workload.next_request rng in
        run_transaction cluster ~sid ~rng ~budget request;
        loop ()
      in
      loop ())

let spawn_many cluster ~n ~first_sid workload =
  for i = 0 to n - 1 do
    spawn cluster ~sid:(first_sid + i) ~rng:(Cluster.rng cluster) workload
  done

let open_loop cluster ~sid ~rng ~rate_tps workload =
  if rate_tps <= 0.0 then invalid_arg "Client.open_loop: rate_tps must be > 0";
  let engine = Cluster.engine cluster in
  let cfg = Cluster.config cluster in
  let mean_gap_ms = 1000.0 /. rate_tps in
  Sim.Process.spawn engine (fun () ->
      (* One budget per arrival process: all of its in-flight handlers
         share the bucket, so the generator's aggregate retry traffic —
         not each transaction's — is what the budget caps. *)
      let budget = budget_of_config cfg (Sim.Engine.now engine) in
      let rec loop () =
        Sim.Process.sleep engine (Util.Rng.exponential rng ~mean:mean_gap_ms);
        let request = workload.next_request rng in
        (* Fire-and-forget handler: the next arrival is scheduled by the
           clock, never by this transaction's completion — offered load
           does not self-throttle when the system slows down. *)
        Sim.Process.spawn engine (fun () ->
            run_transaction cluster ~sid ~rng ~budget request);
        loop ()
      in
      loop ())

let open_loop_many cluster ~n ~first_sid ~rate_tps workload =
  for i = 0 to n - 1 do
    open_loop cluster ~sid:(first_sid + i)
      ~rng:(Cluster.rng cluster)
      ~rate_tps:(rate_tps /. float_of_int n) workload
  done

let no_think _rng = 0.0

let exp_think ~mean_ms rng = Util.Rng.exponential rng ~mean:mean_ms
