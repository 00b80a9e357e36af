(* Versioned binary codec for kernel plans.

   The format is deliberately dumb: little-endian fixed-width words, a
   tag byte per variant constructor, length-prefixed strings and
   sequences.  Every integer travels as 64 bits (element counts and
   byte totals overflow 32), every float as its IEEE bit pattern (so
   arch descriptors and constants round-trip exactly), and the whole
   payload is guarded by an FNV-1a 64 checksum.  Canonical by
   construction: the only non-deterministic state on a plan - the
   graph's memoized fingerprint - is not encoded, so structurally
   identical plans produce identical bytes and byte equality doubles as
   the bit-identity gate. *)

open Astitch_ir
open Astitch_simt

let version = 1
let magic = "ASPK"

type error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated of { want : int; have : int }
  | Checksum_mismatch
  | Malformed of string

let error_to_string = function
  | Bad_magic -> "bad magic: not a plan file"
  | Unsupported_version v ->
      Printf.sprintf "unsupported codec version %d (this codec is v%d)" v
        version
  | Truncated { want; have } ->
      Printf.sprintf "truncated: need %d bytes, have %d" want have
  | Checksum_mismatch -> "checksum mismatch: payload corrupted"
  | Malformed m -> "malformed payload: " ^ m

exception Codec_error of error

(* --- Checksum ------------------------------------------------------------- *)

let fnv1a64 (s : bytes) ~pos ~len =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get s i))))
        prime
  done;
  !h

(* --- Writer --------------------------------------------------------------- *)

let w_i b n = Buffer.add_int64_le b (Int64.of_int n)
let w_f b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let w_s b s =
  w_i b (String.length s);
  Buffer.add_string b s

let w_arr b wf a =
  w_i b (Array.length a);
  Array.iter (wf b) a

let w_list b wf l =
  w_i b (List.length l);
  List.iter (wf b) l

let w_opt b wf = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      wf b v

(* --- Reader --------------------------------------------------------------- *)

(* A bounded cursor over the payload region.  Overruns raise [Short],
   caught at the decode boundary - inside a length- and checksum-checked
   payload an overrun means the payload lies about its own structure,
   which is [Malformed], not [Truncated]. *)

exception Short

type reader = { src : string; limit : int; mutable pos : int }

let need r n = if r.pos + n > r.limit then raise Short

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let r_i r =
  let v = r_i64 r in
  Int64.to_int v

let r_f r = Int64.float_of_bits (r_i64 r)

let r_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_s r =
  let n = r_i r in
  if n < 0 then raise Short;
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_count r =
  let n = r_i r in
  if n < 0 || n > r.limit - r.pos then raise Short;
  n

let r_arr r rf =
  let n = r_count r in
  Array.init n (fun _ -> rf r)

let r_list r rf =
  let n = r_count r in
  List.init n (fun _ -> rf r)

let r_opt r rf = match r_u8 r with 0 -> None | 1 -> Some (rf r) | _ -> raise Short

let malformed fmt = Printf.ksprintf (fun m -> raise (Codec_error (Malformed m))) fmt

(* --- Enums ---------------------------------------------------------------- *)

let unary_tag : Op.unary_kind -> int = function
  | Neg -> 0 | Abs -> 1 | Sign -> 2 | Relu -> 3 | Rcp -> 4 | Exp -> 5
  | Log -> 6 | Tanh -> 7 | Sigmoid -> 8 | Sqrt -> 9 | Rsqrt -> 10 | Erf -> 11

let unary_of_tag : int -> Op.unary_kind = function
  | 0 -> Neg | 1 -> Abs | 2 -> Sign | 3 -> Relu | 4 -> Rcp | 5 -> Exp
  | 6 -> Log | 7 -> Tanh | 8 -> Sigmoid | 9 -> Sqrt | 10 -> Rsqrt | 11 -> Erf
  | t -> malformed "unary kind tag %d" t

let binary_tag : Op.binary_kind -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Max -> 4 | Min -> 5
  | Pow -> 6 | Lt -> 7 | Gt -> 8 | Eq -> 9

let binary_of_tag : int -> Op.binary_kind = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> Div | 4 -> Max | 5 -> Min
  | 6 -> Pow | 7 -> Lt | 8 -> Gt | 9 -> Eq
  | t -> malformed "binary kind tag %d" t

let reduce_tag : Op.reduce_kind -> int = function
  | Sum -> 0 | Max_r -> 1 | Min_r -> 2 | Mean -> 3

let reduce_of_tag : int -> Op.reduce_kind = function
  | 0 -> Sum | 1 -> Max_r | 2 -> Min_r | 3 -> Mean
  | t -> malformed "reduce kind tag %d" t

let dtype_tag : Dtype.t -> int = function F32 -> 0 | F16 -> 1 | I32 -> 2 | Pred -> 3

let dtype_of_tag : int -> Dtype.t = function
  | 0 -> F32 | 1 -> F16 | 2 -> I32 | 3 -> Pred
  | t -> malformed "dtype tag %d" t

let scheme_tag : Scheme.t -> int = function
  | Independent -> 0 | Local -> 1 | Regional -> 2 | Global -> 3

let scheme_of_tag : int -> Scheme.t = function
  | 0 -> Independent | 1 -> Local | 2 -> Regional | 3 -> Global
  | t -> malformed "scheme tag %d" t

let placement_tag : Kernel_plan.placement -> int = function
  | Register -> 0 | Shared_mem -> 1 | Global_scratch -> 2 | Device_mem -> 3

let placement_of_tag : int -> Kernel_plan.placement = function
  | 0 -> Register | 1 -> Shared_mem | 2 -> Global_scratch | 3 -> Device_mem
  | t -> malformed "placement tag %d" t

let kind_tag : Kernel_plan.kernel_kind -> int = function
  | Codegen -> 0 | Library -> 1 | Copy -> 2

let kind_of_tag : int -> Kernel_plan.kernel_kind = function
  | 0 -> Codegen | 1 -> Library | 2 -> Copy
  | t -> malformed "kernel kind tag %d" t

(* --- Ops ------------------------------------------------------------------ *)

let w_int_arr b a = w_arr b w_i a
let r_int_arr r = r_arr r r_i

let w_op b : Op.t -> unit = function
  | Parameter { name } ->
      w_u8 b 0;
      w_s b name
  | Constant { value } ->
      w_u8 b 1;
      w_f b value
  | Iota { axis } ->
      w_u8 b 2;
      w_i b axis
  | Unary { kind; input } ->
      w_u8 b 3;
      w_u8 b (unary_tag kind);
      w_i b input
  | Binary { kind; lhs; rhs } ->
      w_u8 b 4;
      w_u8 b (binary_tag kind);
      w_i b lhs;
      w_i b rhs
  | Broadcast { input; dims } ->
      w_u8 b 5;
      w_i b input;
      w_int_arr b dims
  | Reduce { input; kind; axes } ->
      w_u8 b 6;
      w_i b input;
      w_u8 b (reduce_tag kind);
      w_int_arr b axes
  | Reshape { input } ->
      w_u8 b 7;
      w_i b input
  | Transpose { input; perm } ->
      w_u8 b 8;
      w_i b input;
      w_int_arr b perm
  | Select { pred; on_true; on_false } ->
      w_u8 b 9;
      w_i b pred;
      w_i b on_true;
      w_i b on_false
  | Concat { inputs; axis } ->
      w_u8 b 10;
      w_list b w_i inputs;
      w_i b axis
  | Slice { input; starts; stops } ->
      w_u8 b 11;
      w_i b input;
      w_int_arr b starts;
      w_int_arr b stops
  | Pad { input; low; high } ->
      w_u8 b 12;
      w_i b input;
      w_int_arr b low;
      w_int_arr b high
  | Gather { params; indices } ->
      w_u8 b 13;
      w_i b params;
      w_i b indices
  | Scatter_add { indices; updates; rows } ->
      w_u8 b 14;
      w_i b indices;
      w_i b updates;
      w_i b rows
  | Max_pool { input; window; stride } ->
      w_u8 b 15;
      w_i b input;
      w_i b window;
      w_i b stride
  | Dot { lhs; rhs } ->
      w_u8 b 16;
      w_i b lhs;
      w_i b rhs
  | Conv2d { input; filter; stride } ->
      w_u8 b 17;
      w_i b input;
      w_i b filter;
      w_i b stride

let r_op r : Op.t =
  match r_u8 r with
  | 0 -> Parameter { name = r_s r }
  | 1 -> Constant { value = r_f r }
  | 2 -> Iota { axis = r_i r }
  | 3 ->
      let kind = unary_of_tag (r_u8 r) in
      Unary { kind; input = r_i r }
  | 4 ->
      let kind = binary_of_tag (r_u8 r) in
      let lhs = r_i r in
      Binary { kind; lhs; rhs = r_i r }
  | 5 ->
      let input = r_i r in
      Broadcast { input; dims = r_int_arr r }
  | 6 ->
      let input = r_i r in
      let kind = reduce_of_tag (r_u8 r) in
      Reduce { input; kind; axes = r_int_arr r }
  | 7 -> Reshape { input = r_i r }
  | 8 ->
      let input = r_i r in
      Transpose { input; perm = r_int_arr r }
  | 9 ->
      let pred = r_i r in
      let on_true = r_i r in
      Select { pred; on_true; on_false = r_i r }
  | 10 ->
      let inputs = r_list r r_i in
      Concat { inputs; axis = r_i r }
  | 11 ->
      let input = r_i r in
      let starts = r_int_arr r in
      Slice { input; starts; stops = r_int_arr r }
  | 12 ->
      let input = r_i r in
      let low = r_int_arr r in
      Pad { input; low; high = r_int_arr r }
  | 13 ->
      let params = r_i r in
      Gather { params; indices = r_i r }
  | 14 ->
      let indices = r_i r in
      let updates = r_i r in
      Scatter_add { indices; updates; rows = r_i r }
  | 15 ->
      let input = r_i r in
      let window = r_i r in
      Max_pool { input; window; stride = r_i r }
  | 16 ->
      let lhs = r_i r in
      Dot { lhs; rhs = r_i r }
  | 17 ->
      let input = r_i r in
      let filter = r_i r in
      Conv2d { input; filter; stride = r_i r }
  | t -> malformed "op tag %d" t

(* --- Graph ---------------------------------------------------------------- *)

let w_graph b g =
  w_i b (Graph.num_nodes g);
  for i = 0 to Graph.num_nodes g - 1 do
    let n = Graph.node g i in
    w_op b n.Graph.op;
    w_int_arr b n.Graph.shape;
    w_u8 b (dtype_tag n.Graph.dtype)
  done;
  w_list b w_i (Graph.outputs g)

let r_graph r =
  let n = r_count r in
  let nodes =
    Array.init n (fun id ->
        let op = r_op r in
        let shape = r_int_arr r in
        let dtype = dtype_of_tag (r_u8 r) in
        { Graph.id; op; shape; dtype })
  in
  let outputs = r_list r r_i in
  try Graph.of_nodes nodes ~outputs
  with Graph.Ill_formed m -> malformed "graph: %s" m

(* --- Arch ----------------------------------------------------------------- *)

(* The full device descriptor travels with the plan (not just a name):
   plans compiled against synthetic arches - the tight-shared-mem test
   device, future device-profile families - round-trip without a
   registry lookup. *)
let w_arch b (a : Arch.t) =
  w_s b a.name;
  List.iter (w_i b)
    [
      a.num_sms; a.warp_size; a.max_threads_per_sm; a.max_blocks_per_sm;
      a.max_warps_per_sm; a.max_threads_per_block; a.registers_per_sm;
      a.max_registers_per_thread; a.shared_mem_per_sm; a.shared_mem_per_block;
      a.l2_cache_bytes;
    ];
  List.iter (w_f b)
    [
      a.dram_bandwidth_gbs; a.fp32_tflops; a.fp16_tflops; a.library_tflops;
      a.sm_clock_ghz;
    ]

let r_arch r : Arch.t =
  let name = r_s r in
  let num_sms = r_i r in
  let warp_size = r_i r in
  let max_threads_per_sm = r_i r in
  let max_blocks_per_sm = r_i r in
  let max_warps_per_sm = r_i r in
  let max_threads_per_block = r_i r in
  let registers_per_sm = r_i r in
  let max_registers_per_thread = r_i r in
  let shared_mem_per_sm = r_i r in
  let shared_mem_per_block = r_i r in
  let l2_cache_bytes = r_i r in
  let dram_bandwidth_gbs = r_f r in
  let fp32_tflops = r_f r in
  let fp16_tflops = r_f r in
  let library_tflops = r_f r in
  let sm_clock_ghz = r_f r in
  {
    name; num_sms; warp_size; max_threads_per_sm; max_blocks_per_sm;
    max_warps_per_sm; max_threads_per_block; registers_per_sm;
    max_registers_per_thread; shared_mem_per_sm; shared_mem_per_block;
    l2_cache_bytes; dram_bandwidth_gbs; fp32_tflops; fp16_tflops;
    library_tflops; sm_clock_ghz;
  }

(* --- Mappings, kernels, plan ---------------------------------------------- *)

let w_mapping b : Thread_mapping.t -> unit = function
  | Elementwise { elements; block; grid; rows } ->
      w_u8 b 0;
      w_i b elements;
      w_i b block;
      w_i b grid;
      w_opt b w_i rows
  | Row_reduce
      { rows; row_length; threads_per_row; rows_per_block;
        row_groups_per_block; split } ->
      w_u8 b 1;
      List.iter (w_i b)
        [ rows; row_length; threads_per_row; rows_per_block;
          row_groups_per_block; split ]
  | Column_reduce { rows; row_length; block; grid } ->
      w_u8 b 2;
      List.iter (w_i b) [ rows; row_length; block; grid ]

let r_mapping r : Thread_mapping.t =
  match r_u8 r with
  | 0 ->
      let elements = r_i r in
      let block = r_i r in
      let grid = r_i r in
      Elementwise { elements; block; grid; rows = r_opt r r_i }
  | 1 ->
      let rows = r_i r in
      let row_length = r_i r in
      let threads_per_row = r_i r in
      let rows_per_block = r_i r in
      let row_groups_per_block = r_i r in
      Row_reduce
        { rows; row_length; threads_per_row; rows_per_block;
          row_groups_per_block; split = r_i r }
  | 2 ->
      let rows = r_i r in
      let row_length = r_i r in
      let block = r_i r in
      Column_reduce { rows; row_length; block; grid = r_i r }
  | t -> malformed "mapping tag %d" t

let w_cop b (o : Kernel_plan.compiled_op) =
  w_i b o.id;
  w_u8 b (scheme_tag o.scheme);
  w_u8 b (placement_tag o.placement);
  w_mapping b o.mapping;
  w_i b o.recompute;
  w_i b o.group

let r_cop r : Kernel_plan.compiled_op =
  let id = r_i r in
  let scheme = scheme_of_tag (r_u8 r) in
  let placement = placement_of_tag (r_u8 r) in
  let mapping = r_mapping r in
  let recompute = r_i r in
  { id; scheme; placement; mapping; recompute; group = r_i r }

let w_launch b (l : Astitch_simt.Launch.t) =
  w_i b l.grid;
  w_i b l.block;
  w_i b l.regs_per_thread;
  w_i b l.shared_mem_per_block

let r_launch r : Astitch_simt.Launch.t =
  let grid = r_i r in
  let block = r_i r in
  let regs_per_thread = r_i r in
  let shared_mem_per_block = r_i r in
  try
    Astitch_simt.Launch.make ~regs_per_thread ~shared_mem_per_block ~grid
      ~block ()
  with Astitch_simt.Launch.Invalid m -> malformed "launch: %s" m

let w_kernel b (k : Kernel_plan.kernel) =
  w_s b k.name;
  w_u8 b (kind_tag k.kind);
  w_list b w_cop k.ops;
  w_launch b k.launch;
  w_i b k.barriers;
  w_i b k.scratch_bytes

let r_kernel r : Kernel_plan.kernel =
  let name = r_s r in
  let kind = kind_of_tag (r_u8 r) in
  let ops = r_list r r_cop in
  let launch = r_launch r in
  let barriers = r_i r in
  { name; kind; ops; launch; barriers; scratch_bytes = r_i r }

let w_cls b : Batch_axis.cls -> unit = function
  | Invariant -> w_u8 b 0
  | Scaled { axis; unit } ->
      w_u8 b 1;
      w_i b axis;
      w_i b unit

let r_cls r : Batch_axis.cls =
  match r_u8 r with
  | 0 -> Invariant
  | 1 ->
      let axis = r_i r in
      Scaled { axis; unit = r_i r }
  | t -> malformed "batch-axis cls tag %d" t

let w_batch b (p : Batch_axis.plan) =
  w_i b p.max_batch;
  w_arr b w_cls p.cls

let r_batch r : Batch_axis.plan =
  let max_batch = r_i r in
  { max_batch; cls = r_arr r r_cls }

let w_plan b (p : Kernel_plan.t) =
  w_arch b p.arch;
  w_graph b p.graph;
  w_list b w_kernel p.kernels;
  w_i b p.memcpys;
  w_i b p.memsets;
  w_i b p.memcpy_bytes;
  w_opt b w_batch p.batch

let r_plan r : Kernel_plan.t =
  let arch = r_arch r in
  let graph = r_graph r in
  let kernels = r_list r r_kernel in
  let memcpys = r_i r in
  let memsets = r_i r in
  let memcpy_bytes = r_i r in
  let batch = r_opt r r_batch in
  { arch; graph; kernels; memcpys; memsets; memcpy_bytes; batch }

(* --- Entry points --------------------------------------------------------- *)

(* Header, payload and checksum go into one buffer that is copied out
   once: a full-size graph's encoding runs to hundreds of KB, and each
   extra copy is a large allocation straight into the major heap. *)
let encode plan =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_int64_le b (Int64.of_int version);
  Buffer.add_int64_le b 0L (* payload length, set below *);
  w_plan b plan;
  let plen = Buffer.length b - 20 in
  let out = Bytes.create (20 + plen + 8) in
  Buffer.blit b 0 out 0 (20 + plen);
  Bytes.set_int64_le out 12 (Int64.of_int plen);
  Bytes.set_int64_le out (20 + plen) (fnv1a64 out ~pos:20 ~len:plen);
  Bytes.unsafe_to_string out

let decode_exn s =
  let len = String.length s in
  if len < 4 then raise (Codec_error (Truncated { want = 4; have = len }));
  if String.sub s 0 4 <> magic then raise (Codec_error Bad_magic);
  if len < 20 then raise (Codec_error (Truncated { want = 20; have = len }));
  let v = Int64.to_int (String.get_int64_le s 4) in
  if v <> version then raise (Codec_error (Unsupported_version v));
  let plen = Int64.to_int (String.get_int64_le s 12) in
  let want = 20 + plen + 8 in
  if plen < 0 || len < want then
    raise (Codec_error (Truncated { want; have = len }));
  if len > want then
    raise
      (Codec_error
         (Malformed
            (Printf.sprintf "%d trailing bytes after checksum" (len - want))));
  let stored = String.get_int64_le s (20 + plen) in
  (* read-only view: the checksum never writes *)
  let sum = fnv1a64 (Bytes.unsafe_of_string s) ~pos:20 ~len:plen in
  if not (Int64.equal stored sum) then raise (Codec_error Checksum_mismatch);
  let r = { src = s; limit = 20 + plen; pos = 20 } in
  let plan =
    try r_plan r with
    | Short -> raise (Codec_error (Malformed "payload exhausted mid-field"))
    | Thread_mapping.Invalid m ->
        raise (Codec_error (Malformed ("mapping: " ^ m)))
    | Shape.Invalid m -> raise (Codec_error (Malformed ("shape: " ^ m)))
  in
  if r.pos <> r.limit then
    raise
      (Codec_error
         (Malformed
            (Printf.sprintf "%d trailing payload bytes" (r.limit - r.pos))));
  plan

let decode s =
  match decode_exn s with
  | plan -> Ok plan
  | exception Codec_error e -> Error e

let equal a b = String.equal (encode a) (encode b)
