(** Compiler configuration, including the Table 4 ablation switches. *)

type t = {
  adaptive_thread_mapping : bool;
  hierarchical_data_reuse : bool;
      (** off = fall back to XLA's fusion cuts (the ATM ablation) *)
  dominant_merging : bool;
  remote_stitching : bool;
  max_remote_merge_width : int;
  compile_budget_s : float option;
      (** per-attempt compile-time budget for the resilient pipeline;
          [None] = unbounded *)
  faults : Astitch_plan.Fault_site.plan list;
      (** armed fault-injection plans (testing only; [[]] in production) *)
}

val full : t

val atm_only : t
(** Adaptive thread mapping on XLA's fusion plan (Table 4 "ATM"). *)

val no_dominant_merging : t
(** Exhaustive stitching without dominant merging (Table 4 "HDM"). *)

val to_string : t -> string

val cache_key : t -> string
(** Canonical serialization of every plan-affecting field, for plan-cache
    keys.  Fault plans are keyed by count and the budget by value, so
    fault-injected or budget-constrained configs never alias a production
    entry. *)
