(** Dynamic-batching classification, packing and unpacking.

    A builder family [build : batch -> graph] is batchable when
    {!Batch_axis.analyze} classifies it - every node keeps its shape
    across batch sizes or scales one outermost axis linearly with the
    batch - and it has at least one per-request parameter.  [analyze]
    reads each parameter's and output's axis off that node
    classification; [pack]/[unpack] then move request tensors in and
    out of a batched execution such that, for row-independent builders,
    batched results are bit-identical to running every request alone. *)

open Astitch_ir
open Astitch_tensor

exception Not_batchable of string

type axis_info = {
  axis : int;  (** which axis scales with the batch *)
  extent : int;  (** that axis's extent at batch 1 *)
}

type spec = {
  base : Graph.t;  (** the batch-1 graph *)
  cls : Batch_axis.cls array;
      (** the node classification [Batch_axis.analyze] gave, by node id *)
  request_params : (string * axis_info) list;  (** packed per request *)
  shared_params : (string * Shape.t) list;  (** weights, bound once *)
  outputs : axis_info option list;
      (** per output: [Some] = sliced per request, [None] = batch-invariant *)
}

val analyze : (int -> Graph.t) -> spec
(** Classify a builder family.  Builds the graph at batch 1 and 2, once
    each, and runs {!Batch_axis.analyze} on the pair.
    @raise Not_batchable with the classifier's node-level reason, or
    when no parameter scales with the batch. *)

val pack : spec -> (string * Tensor.t) list list -> (string * Tensor.t) list
(** Concatenate the requests' bindings along their batch axes: [n]
    requests pack into exactly [n] row blocks.  Validates every request
    against the spec.
    @raise Not_batchable on a binding mismatch. *)

val unpack : spec -> count:int -> Tensor.t list -> Tensor.t list list
(** Slice batched outputs back into [count] per-request output lists;
    batch-invariant outputs are copied to every request. *)

val concat_axis : axis:int -> Tensor.t list -> Tensor.t
(** Row-major concatenation along [axis] (exposed for tests). *)

val slice_axis : axis:int -> lo:int -> hi:int -> Tensor.t -> Tensor.t
(** Row-major slice [lo, hi) along [axis] (exposed for tests). *)

val random_request : spec -> seed:int -> (string * Tensor.t) list
(** Deterministic per-request bindings at batch 1. *)

val random_shared : spec -> seed:int -> (string * Tensor.t) list
(** Deterministic shared-weight bindings. *)
