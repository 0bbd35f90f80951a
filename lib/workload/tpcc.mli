(** TPC-C workload model (extension).

    The paper cites TPC-C alongside TPC-W as a workload that runs
    serializably under SI/GSI (§IV). This module provides the standard
    9-table schema, a scaled-down deterministic population, and the five
    transactions with the spec's mix (new-order 45%, payment 43%,
    order-status 4%, delivery 4%, stock-level 4%).

    Deviations from the spec, forced by the prepared-statement model
    (statement parameters are bound before execution, results cannot
    feed later statements) and documented here:
    - order ids are random surrogates rather than [d_next_o_id] reads,
      but new-order still increments the district's hot counter, so the
      spec's per-district write contention is preserved;
    - customer lookups are by id (the spec's 60% by-last-name path needs
      result-dependent control flow);
    - delivery processes one randomly chosen order per district instead
      of the oldest undelivered one. *)

type params = {
  warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
  initial_orders_per_district : int;
}

val default : params
(** 4 warehouses x 10 districts, 300 customers and 100 initial orders
    per district, 1,000 items (scaled from the spec's 3,000 / 100,000). *)

type tx = New_order | Payment | Order_status | Delivery | Stock_level

val tx_name : tx -> string

val is_update_tx : tx -> bool

val schemas : Storage.Schema.t list

val load : params -> Storage.Database.t -> unit

val request : params -> tx -> Util.Rng.t -> Core.Transaction.request

val sample_tx : Util.Rng.t -> tx

val workload : params -> Core.Client.workload
(** Closed loop, zero think time (the spec's keying/think times scale
    out the same way as TPC-W's; use {!Core.Client.exp_think} wrappers
    for open-loop variants). *)

val profiles : Check.Si_analysis.profile list
(** Item-granularity transaction profiles for the static SI
    serializability analysis. *)
