type request = {
  profile : string;
  table_set : string list;
  statements : Storage.Query.t list;
  tier : Consistency.read_tier;
}

type abort_reason =
  | Certification_conflict
  | Early_certification
  | Replica_failure
  | Timeout
  | Overloaded of { retry_after_ms : float }
  | Statement_error of string

type outcome =
  | Committed of {
      commit_version : int option;
      snapshot : int;
      stages : float array;
      response_ms : float;
    }
  | Aborted of {
      reason : abort_reason;
      response_ms : float;
    }

let make ~profile ?table_set ?(tier = Consistency.Strong) statements =
  let table_set =
    match table_set with Some ts -> ts | None -> Storage.Query.table_set statements
  in
  { profile; table_set; statements; tier }

let updates_possible r = List.exists Storage.Query.is_update r.statements

(* Read-class admission: the weaker tiers are contracts about *reads*;
   a request that may write must run under the cluster's write mode. *)
let tier_violation r =
  match r.tier with
  | Consistency.Strong -> None
  | t when updates_possible r ->
    Some
      (Printf.sprintf "read tier %s admits no update statements"
         (Consistency.tier_to_string t))
  | _ -> None

let pp_abort_reason ppf = function
  | Certification_conflict -> Format.pp_print_string ppf "certification conflict"
  | Early_certification -> Format.pp_print_string ppf "early certification conflict"
  | Replica_failure -> Format.pp_print_string ppf "replica failure"
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Overloaded { retry_after_ms } ->
    Format.fprintf ppf "overloaded (retry after %.1fms)" retry_after_ms
  | Statement_error msg -> Format.fprintf ppf "statement error: %s" msg

let abort_slug = function
  | Certification_conflict -> "certification"
  | Early_certification -> "early_certification"
  | Replica_failure -> "replica_failure"
  | Timeout -> "timeout"
  | Overloaded _ -> "overloaded"
  | Statement_error _ -> "statement_error"

(* Conflict-class aborts (certification) are the transaction's own fault
   and consume the client's retry budget; failure-class aborts are the
   cluster's fault and are retried until the cluster heals. Overload
   sheds are also no fault of the transaction — but unlike the failure
   class they are throttled by the retry-after hint and the client's
   retry *budget* (under Config.overload_protection), never by max_retries. *)
let abort_is_transient = function
  | Replica_failure | Timeout | Overloaded _ -> true
  | Certification_conflict | Early_certification | Statement_error _ -> false
