(** The per-table / per-figure reproduction harness (see DESIGN.md's
    experiment index and EXPERIMENTS.md for paper-vs-measured). *)

open Astitch_plan

type mode = Inference | Training | Amp_inference

val tf : Backend_intf.t
val xla : Backend_intf.t
val tvm : Backend_intf.t
val ansor : Backend_intf.t
val trt : Backend_intf.t
val astitch : Backend_intf.t
val atm : Backend_intf.t
val hdm : Backend_intf.t

val result : Astitch_workloads.Zoo.entry -> mode -> Backend_intf.t ->
  Astitch_runtime.Session.result
(** Memoized compile+profile of one (model, mode, backend) triple. *)

val total_ms : Astitch_workloads.Zoo.entry -> mode -> Backend_intf.t -> float

val fused_exec_default : bool ref
(** Engine the "exec" experiment puts under test (default [true] =
    fused); the CLI's [bench --no-fused] flips it. *)

val all : (string * string * (unit -> unit)) list
(** [(id, description, run)] for every experiment. *)

val run : string -> unit
(** Run one experiment by id.
    @raise Astitch_plan.Compile_error.Error with kind [Unknown_name],
    whose message lists the valid ids, on unknown ids. *)

val run_all : unit -> unit

val clear_caches : unit -> unit
(** Drop memoized graphs/plans so benchmarks measure real work. *)
