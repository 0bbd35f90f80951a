(** The certification core (§IV): a group member's versioned writeset
    log and the keyed first-committer-wins index over it, with no
    simulator dependency. {!Certifier} is the replication shell around
    it; every write to a member's log or to the index goes through this
    module. It is also the unit certifier sharding would replicate per
    shard. *)

(** A member's decision log: one committed writeset per version over
    [(base, head]]. *)
module Log : sig
  type t

  val create : unit -> t
  (** An empty log at version 0. *)

  val base : t -> int
  (** Highest pruned version. *)

  val head : t -> int
  (** Highest logged version. *)

  val append_at : t -> int -> Storage.Writeset.t -> unit
  (** Contiguity-checked replication: log the writeset at the given
      version iff it is [head + 1], else drop it. *)

  val entries : t -> after:int -> upto:int -> (int * Storage.Writeset.t) list
  (** Ascending [(version, writeset)] over [(after, upto]], both within
      [[base, head]]. *)

  val truncate : t -> upto:int -> unit
  (** Reconciliation: drop the versions [> upto], never below [base]. *)

  val prune : t -> keep_after:int -> unit
  (** Drop the versions [<= keep_after]; no-op unless
      [base < keep_after <= head]. *)

  val install_snapshot : t -> base:int -> unit
  (** State transfer: replace the log by an empty one at [base]; the
      entries follow through {!append_at}. *)
end

(** Conflict id (of the group's {!Storage.Intern} table) → highest
    committed version writing that record. A probe neither allocates
    nor hashes strings. *)
module Index : sig
  type t

  val create : intern:Storage.Intern.t -> unit -> t
  (** An empty index over the ids of [intern], the group's table:
      every writeset it sees must be built against it. *)

  val intern : t -> Storage.Intern.t

  val conflicts : t -> snapshot:int -> Storage.Writeset.t -> bool
  (** Whether some record the writeset writes was last written after
      [snapshot]: O(|writeset|) however far the snapshot lags. *)

  val rebuild : t -> Log.t -> unit
  (** Replay the log's retained entries into an emptied index. *)

  val prune : t -> keep_after:int -> unit
  (** Drop the entries [<= keep_after], alongside {!Log.prune}. *)

  val size : t -> int
end

val decide :
  record:bool -> Log.t -> Index.t -> snapshot:int -> Storage.Writeset.t -> int option
(** First-committer-wins: [None] when [snapshot] predates the log's base
    or {!Index.conflicts}; otherwise append the writeset and return its
    version, also recording it in the index when [record] holds. *)
