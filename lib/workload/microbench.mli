(** The paper's micro-benchmark (§V.B).

    [tables] tables of [rows] records each; the common schema is a
    primary key (INT), an integer field and a 100-character text field.
    There are [tables] transaction types: type [i] either retrieves or
    updates one random record of table [i]. With [update_types = k], the
    first [k] types are updates and the rest are point reads — the
    paper's "ratio of read-only/update transactions between 0/40 and
    40/0". Clients pick a type uniformly at random. *)

type params = {
  tables : int;
  rows : int;
  update_types : int;  (** 0..tables *)
}

val default : params
(** 40 tables x 10,000 rows (the paper's sizes with the OCR-dropped
    zeros restored), no update types — set [update_types] per run. *)

val schemas : params -> Storage.Schema.t list

val load : params -> Storage.Database.t -> unit
(** Deterministic population: row [i] of every table is
    [(i, i * 17 mod 97, <shared 100-char pad>)]. *)

val workload : params -> Core.Client.workload
(** Closed-loop, zero think time. *)

val request : params -> Util.Rng.t -> Core.Transaction.request
(** One sampled transaction (exposed for tests). *)

val span_workload : params -> span:int -> Core.Client.workload

val hot_workload : params -> hot_rows:int -> Core.Client.workload
(** Updates draw keys from only the first [hot_rows] rows of each table,
    raising the write-conflict rate. Used by the early-certification
    ablation. *)

(** {2 Mixed-consistency read tiers (docs/CONSISTENCY.md)} *)

(** Fractions of {e read} transactions assigned to each weaker tier; the
    remainder (and every update) stays [Strong]. The three fractions
    must sum to at most 1. *)
type tier_mix = {
  bounded : float;
  causal : float;
  eventual : float;
}

val tiered_workload :
  ?mix:tier_mix ->
  ?bounded_tier:Core.Consistency.read_tier ->
  params ->
  Core.Client.workload
(** {!workload} with reads carrying a sampled {!Core.Consistency.read_tier}
    per {!tier_mix} ([bounded_tier] — default [Bounded_staleness
    {versions = Some 8; ms = None}] — is the tier bounded reads declare).
    Tier assignment draws one extra random number per read, so this
    workload is deterministic but not event-identical to {!workload};
    use it only in runs that opt into tiers. *)
