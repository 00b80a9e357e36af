(* Dynamic-batching classification, packing and unpacking.

   The batcher may merge requests only when the merged execution is
   BIT-IDENTICAL to running each request alone - the whole contract of
   the serving runtime.  That property is per-builder: a builder family
   [build : batch -> graph] qualifies when every node either keeps its
   shape as the batch grows or scales exactly one, effectively
   outermost, axis linearly with it.  [Batch_axis.analyze] is the one
   classifier: it diffs the batch-1 and batch-2 builds node by node, and
   [analyze] reads each parameter's and output's axis straight off that
   classification - a scaled parameter is a per-request input, an
   invariant one a shared weight - and rejects anything the classifier
   refuses ([Not_batchable]).  The numeric half of the contract - no op
   mixes rows across requests - cannot be decided from shapes alone; it
   is enforced by the bit-identity test suite over every served builder
   (zoo workloads and random graphs), and double-checked at runtime by
   the [verify] sampling hook in the worker pool.

   Packing concatenates each per-request parameter along its batch axis
   in request order - exactly one row block per request, nothing
   padded.  Unpacking slices each output back along its batch axis and
   copies batch-invariant outputs whole to every request. *)

open Astitch_ir
open Astitch_tensor

exception Not_batchable of string

let not_batchable fmt = Printf.ksprintf (fun m -> raise (Not_batchable m)) fmt

type axis_info = { axis : int; extent : int }

type spec = {
  base : Graph.t;
  cls : Batch_axis.cls array;
  request_params : (string * axis_info) list;
  shared_params : (string * Shape.t) list;
  outputs : axis_info option list;
}

(* --- Classification ------------------------------------------------------ *)

(* Parameters and outputs are nodes, so their axes are read off the
   node classification: a scaled node is per-request along its batch
   axis, an invariant one is shared (parameters) or copied to every
   request (outputs). *)
let axis_info = function
  | Batch_axis.Invariant -> None
  | Batch_axis.Scaled { axis; unit } -> Some { axis; extent = unit }

let analyze build =
  let base = build 1 in
  let cls =
    match Batch_axis.analyze ~g1:base ~g2:(build 2) with
    | Ok cls -> cls
    | Error reason -> raise (Not_batchable reason)
  in
  let request_params, shared_params =
    List.partition_map
      (fun id ->
        let name =
          match Graph.op base id with
          | Op.Parameter { name } -> name
          | _ -> assert false
        in
        match axis_info cls.(id) with
        | Some info -> Left (name, info)
        | None -> Right (name, Graph.shape base id))
      (Graph.parameters base)
  in
  if request_params = [] then
    not_batchable "no per-request parameters: nothing to batch";
  {
    base;
    cls;
    request_params;
    shared_params;
    outputs = List.map (fun id -> axis_info cls.(id)) (Graph.outputs base);
  }

(* --- Tensor surgery along an axis ---------------------------------------- *)

(* Row-major concat of same-shape-elsewhere tensors along [axis]. *)
let concat_axis ~axis ts =
  match ts with
  | [] -> invalid_arg "Batching.concat_axis: empty"
  | first :: _ ->
      let shape = Shape.to_list (Tensor.shape first) in
      let outer =
        List.filteri (fun i _ -> i < axis) shape |> List.fold_left ( * ) 1
      in
      let inner =
        List.filteri (fun i _ -> i > axis) shape |> List.fold_left ( * ) 1
      in
      let seg t = Shape.dim (Tensor.shape t) axis * inner in
      let total_axis =
        List.fold_left (fun a t -> a + Shape.dim (Tensor.shape t) axis) 0 ts
      in
      let out_shape =
        List.mapi (fun i d -> if i = axis then total_axis else d) shape
      in
      let dst = Array.make (outer * total_axis * inner) 0. in
      let row_bytes = total_axis * inner in
      let pos = ref 0 in
      List.iter
        (fun t ->
          let src = Tensor.data t in
          let s = seg t in
          for o = 0 to outer - 1 do
            Array.blit src (o * s) dst ((o * row_bytes) + !pos) s
          done;
          pos := !pos + s)
        ts;
      Tensor.create (Shape.of_list out_shape) dst

(* Slice [lo, hi) along [axis]. *)
let slice_axis ~axis ~lo ~hi t =
  let shape = Shape.to_list (Tensor.shape t) in
  let dim = List.nth shape axis in
  if lo < 0 || hi > dim || lo >= hi then
    invalid_arg
      (Printf.sprintf "Batching.slice_axis: [%d,%d) out of <%d>" lo hi dim);
  let outer =
    List.filteri (fun i _ -> i < axis) shape |> List.fold_left ( * ) 1
  in
  let inner =
    List.filteri (fun i _ -> i > axis) shape |> List.fold_left ( * ) 1
  in
  let out_shape =
    List.mapi (fun i d -> if i = axis then hi - lo else d) shape
  in
  let src = Tensor.data t in
  let seg = (hi - lo) * inner in
  let dst = Array.make (outer * seg) 0. in
  for o = 0 to outer - 1 do
    Array.blit src (((o * dim) + lo) * inner) dst (o * seg) seg
  done;
  Tensor.create (Shape.of_list out_shape) dst

(* --- Packing / unpacking ------------------------------------------------- *)

let base_param_shape spec name =
  match
    Option.map (Graph.shape spec.base) (Graph.find_parameter spec.base name)
  with
  | Some s -> s
  | None -> not_batchable "parameter %s not in the base graph" name

(* Validate one request's bindings: exactly the per-request parameters,
   each at its batch-1 shape. *)
let check_request spec params =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec.request_params) then
        not_batchable "binding %s is not a per-request parameter" name)
    params;
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name params with
      | None -> not_batchable "request lacks a binding for %s" name
      | Some t ->
          let want = base_param_shape spec name in
          if not (Shape.equal (Tensor.shape t) want) then
            not_batchable "binding %s has shape %s, want %s" name
              (Shape.to_string (Tensor.shape t))
              (Shape.to_string want))
    spec.request_params

let pack spec requests =
  if requests = [] then invalid_arg "Batching.pack: no requests";
  List.iter (check_request spec) requests;
  List.map
    (fun (name, info) ->
      let parts = List.map (List.assoc name) requests in
      let packed = concat_axis ~axis:info.axis parts in
      (* serving-runtime fault site: raise models a failed pack,
         corrupt perturbs one cell of the freshly concatenated tensor
         (safe to mutate in place - [concat_axis] allocates it) *)
      (match
         Astitch_plan.Fault_site.check_runtime
           Astitch_plan.Fault_site.Pack ~pass:name
       with
      | None -> ()
      | Some seed ->
          let d = Tensor.data packed in
          let nd = Array.length d in
          if nd > 0 then
            d.(abs seed mod nd) <- d.(abs seed mod nd) +. 1.);
      (name, packed))
    spec.request_params

let unpack spec ~count outputs =
  if List.length outputs <> List.length spec.outputs then
    invalid_arg "Batching.unpack: output arity mismatch";
  List.init count (fun i ->
      List.map2
        (fun info t ->
          let sliced =
            match info with
            | None -> Tensor.copy t
            | Some { axis; extent } ->
                slice_axis ~axis ~lo:(i * extent) ~hi:((i + 1) * extent) t
          in
          (* serving-runtime fault site: corrupt perturbs the freshly
             sliced (or copied) per-request output in place *)
          (match
             Astitch_plan.Fault_site.check_runtime
               Astitch_plan.Fault_site.Unpack ~pass:"unpack"
           with
          | None -> ()
          | Some seed ->
              let d = Tensor.data sliced in
              let nd = Array.length d in
              if nd > 0 then
                d.(abs seed mod nd) <- d.(abs seed mod nd) +. 1.);
          sliced)
        spec.outputs outputs)

(* Deterministic per-request bindings (the serving analogue of
   [Session.random_params], restricted to per-request parameters). *)
let random_request spec ~seed =
  List.mapi
    (fun i (name, _) ->
      (name, Tensor.random ~seed:(seed + (31 * i)) (base_param_shape spec name)))
    spec.request_params

let random_shared spec ~seed =
  List.mapi
    (fun i (name, shape) ->
      (name, Tensor.random ~seed:(seed + 17 + (37 * i)) shape))
    spec.shared_params
