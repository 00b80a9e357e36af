(* Planning layer: thread mappings, clustering, plan invariants. *)

open Astitch_ir
open Astitch_simt
open Astitch_plan

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Thread mappings ----------------------------------------------------- *)

let test_mapping_geometry () =
  let m =
    Thread_mapping.Row_reduce
      { rows = 750_000; row_length = 32; threads_per_row = 32;
        rows_per_block = 32; row_groups_per_block = 147; split = 1 }
  in
  Thread_mapping.validate m;
  check_int "block" 1024 (Thread_mapping.block m);
  check_int "grid" 160 (Thread_mapping.grid m);
  check "no atomics" false (Thread_mapping.uses_atomics m);
  let s =
    Thread_mapping.Row_reduce
      { rows = 64; row_length = 30_000; threads_per_row = 1024;
        rows_per_block = 1; row_groups_per_block = 1; split = 2 }
  in
  Thread_mapping.validate s;
  check_int "split grid" 128 (Thread_mapping.grid s);
  check "split atomics" true (Thread_mapping.uses_atomics s);
  check "split no contiguous outputs" true
    (Thread_mapping.contiguous_outputs_per_block s = None)

let test_mapping_validation () =
  (match
     Thread_mapping.validate
       (Thread_mapping.Row_reduce
          { rows = 4; row_length = 8; threads_per_row = 2048;
            rows_per_block = 1; row_groups_per_block = 1; split = 1 })
   with
  | () -> Alcotest.fail "oversized block must fail"
  | exception Thread_mapping.Invalid _ -> ());
  match
    Thread_mapping.validate
      (Thread_mapping.Row_reduce
         { rows = 4; row_length = 8; threads_per_row = 32; rows_per_block = 2;
           row_groups_per_block = 1; split = 2 })
  with
  | () -> Alcotest.fail "split+packing must fail"
  | exception Thread_mapping.Invalid _ -> ()

let test_mapping_alignment () =
  let red =
    Thread_mapping.Row_reduce
      { rows = 100; row_length = 64; threads_per_row = 64; rows_per_block = 16;
        row_groups_per_block = 1; split = 1 }
  in
  let grid = Thread_mapping.grid red in
  let aligned =
    Thread_mapping.Elementwise
      { elements = 6400; block = 1024; grid; rows = Some 100 }
  in
  check "aligned" true (Thread_mapping.block_aligned red aligned);
  let misaligned =
    Thread_mapping.Elementwise
      { elements = 6400; block = 1024; grid = grid + 1; rows = Some 100 }
  in
  check "grid mismatch" false (Thread_mapping.block_aligned red misaligned);
  let rowless =
    Thread_mapping.Elementwise { elements = 6400; block = 1024; grid; rows = None }
  in
  check "rowless" false (Thread_mapping.block_aligned red rowless)

(* --- Clustering ----------------------------------------------------------- *)

(* mem -> dot -> mem sandwich: clusters must not span the dot. *)
let sandwich_graph () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 4 ] in
  let a = Builder.tanh b x in
  let w = Builder.parameter b "w" [ 4; 4 ] in
  let d = Builder.dot b a w in
  let y = Builder.add b d a in (* reads across the compute op *)
  let out = Builder.sigmoid b y in
  (Builder.finish b ~outputs:[ out ], a, d, y, out)

let test_cluster_depth_split () =
  let g, a, d, y, out = sandwich_graph () in
  let depths = Clustering.compute_depths g in
  check_int "a depth" 0 depths.(a);
  check_int "y depth" 1 depths.(y);
  let cs = Clustering.clusters g in
  check_int "two clusters" 2 (List.length cs);
  let find_cluster n = List.find (fun c -> List.mem n c.Clustering.nodes) cs in
  check "a alone" true (find_cluster a != find_cluster y);
  check "y with out" true (find_cluster y == find_cluster out);
  check "dot not clustered" true
    (List.for_all (fun c -> not (List.mem d c.Clustering.nodes)) cs)

let test_remote_stitch_independent () =
  (* two disconnected memory-intensive chains merge *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 8 ] in
  let y = Builder.parameter b "y" [ 8 ] in
  let o1 = Builder.tanh b (Builder.neg b x) in
  let o2 = Builder.sigmoid b (Builder.abs b y) in
  let g = Builder.finish b ~outputs:[ o1; o2 ] in
  let cs = Clustering.clusters g in
  check_int "two before" 2 (List.length cs);
  let merged = Clustering.remote_stitch g cs in
  check_int "one after" 1 (List.length merged)

let test_remote_stitch_dependent () =
  (* chains linked through a dot must NOT merge (would be cyclic) *)
  let g, _, _, _, _ = sandwich_graph () in
  let cs = Clustering.clusters g in
  let merged = Clustering.remote_stitch g cs in
  check_int "still two" 2 (List.length merged)

let test_remote_stitch_width_cap () =
  let b = Builder.create () in
  let outs =
    List.init 6 (fun i ->
        Builder.tanh b (Builder.parameter b (Printf.sprintf "x%d" i) [ 4 ]))
  in
  let g = Builder.finish b ~outputs:outs in
  let merged = Clustering.remote_stitch ~max_merge_width:2 g (Clustering.clusters g) in
  check_int "3 groups of 2" 3 (List.length merged)

(* --- Plan invariants ------------------------------------------------------ *)

let tiny_plan_graph () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 8 ] in
  let t = Builder.tanh b x in
  let r = Builder.reduce_sum b ~axes:[ 1 ] t in
  (Builder.finish b ~outputs:[ r ], t, r)

let mk_op ?(scheme = Scheme.Local) ?(placement = Kernel_plan.Register)
    ?(recompute = 1) id mapping =
  { Kernel_plan.id; scheme; placement; mapping; recompute; group = 0 }

let ew elements =
  Thread_mapping.Elementwise { elements; block = 256; grid = 1; rows = None }

let test_check_catches_unavailable () =
  let g, t, r = tiny_plan_graph () in
  let k =
    {
      Kernel_plan.name = "k";
      kind = Kernel_plan.Codegen;
      ops = [ mk_op ~placement:Kernel_plan.Device_mem r (ew 4) ];
      launch = Launch.make ~grid:1 ~block:256 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g; kernels = [ k ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  (match Kernel_plan.check plan with
  | () -> Alcotest.fail "reading tanh before computing it must fail"
  | exception Compile_error.Error _ -> ());
  (* fixed plan passes *)
  let k_ok = { k with ops = [ mk_op t (ew 32); mk_op ~placement:Kernel_plan.Device_mem r (ew 4) ] } in
  Kernel_plan.check { plan with kernels = [ k_ok ] }

let test_check_catches_register_escape () =
  let g, t, r = tiny_plan_graph () in
  let k1 =
    {
      Kernel_plan.name = "k1";
      kind = Kernel_plan.Codegen;
      ops = [ mk_op ~placement:Kernel_plan.Register t (ew 32) ];
      launch = Launch.make ~grid:1 ~block:256 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let k2 = { k1 with name = "k2"; ops = [ mk_op ~placement:Kernel_plan.Device_mem r (ew 4) ] } in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g; kernels = [ k1; k2 ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  match Kernel_plan.check plan with
  | () -> Alcotest.fail "register value escaping its kernel must fail"
  | exception Compile_error.Error _ -> ()

let test_check_catches_double_materialize () =
  let g, t, r = tiny_plan_graph () in
  let mk name ops =
    { Kernel_plan.name; kind = Kernel_plan.Codegen; ops;
      launch = Launch.make ~grid:1 ~block:256 (); barriers = 0; scratch_bytes = 0 }
  in
  let dev id n = mk_op ~placement:Kernel_plan.Device_mem id (ew n) in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g;
      kernels = [ mk "a" [ dev t 32 ]; mk "b" [ dev t 32 ]; mk "c" [ dev r 4 ] ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  match Kernel_plan.check plan with
  | () -> Alcotest.fail "double materialization must fail"
  | exception Compile_error.Error _ -> ()

let test_check_barrier_required () =
  let g, t, r = tiny_plan_graph () in
  let k =
    {
      Kernel_plan.name = "k";
      kind = Kernel_plan.Codegen;
      ops =
        [
          mk_op ~placement:Kernel_plan.Global_scratch ~scheme:Scheme.Global t (ew 32);
          mk_op ~placement:Kernel_plan.Device_mem r (ew 4);
        ];
      launch = Launch.make ~grid:1 ~block:256 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g; kernels = [ k ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  (match Kernel_plan.check plan with
  | () -> Alcotest.fail "global scratch without barrier must fail"
  | exception Compile_error.Error _ -> ());
  Kernel_plan.check { plan with kernels = [ { k with barriers = 1 } ] }

(* Liveness semantics of the per-kernel check: a Register or Shared_mem
   value may have consumers outside its kernel as long as they are dead;
   reviving one (declaring it a graph output) makes exactly that escape a
   violation. *)
let test_check_kernel_ignores_dead_consumers () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 8 ] in
  let a = Builder.tanh b x in
  let s = Builder.exp b x in
  let y = Builder.add b a s in
  let a_dead = Builder.neg b a in
  let s_dead = Builder.neg b s in
  let g = Builder.finish b ~outputs:[ y ] in
  let with_outputs outputs =
    Graph.of_nodes (Array.init (Graph.num_nodes g) (Graph.node g)) ~outputs
  in
  let k =
    {
      Kernel_plan.name = "k";
      kind = Kernel_plan.Codegen;
      ops =
        [
          mk_op ~placement:Kernel_plan.Register a (ew 32);
          mk_op ~placement:Kernel_plan.Shared_mem s (ew 32);
          mk_op ~placement:Kernel_plan.Device_mem y (ew 32);
        ];
      launch = Launch.make ~shared_mem_per_block:128 ~grid:1 ~block:256 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  check "dead out-of-kernel consumers pass" true
    (Kernel_plan.check_kernel Arch.v100 g k = []);
  let contains str sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length str && (String.sub str i n = sub || go (i + 1))
    in
    go 0
  in
  (* reviving [consumer] leaves exactly one violation, naming the pair *)
  let escapes ~producer ~consumer phrase =
    let g' = with_outputs [ y; consumer ] in
    match Kernel_plan.check_kernel Arch.v100 g' k with
    | [ v ] ->
        v.kind = Compile_error.Invalid_structure
        && v.ops = [ producer; consumer ]
        && contains v.message phrase
    | _ -> false
  in
  check "live register consumer escapes" true
    (escapes ~producer:a ~consumer:a_dead "outside kernel");
  check "live shared-mem consumer escapes" true
    (escapes ~producer:s ~consumer:s_dead "escapes kernel")

let test_toposort_kernels () =
  let g, t, r = tiny_plan_graph () in
  let mk name ops =
    { Kernel_plan.name; kind = Kernel_plan.Codegen; ops;
      launch = Launch.make ~grid:1 ~block:256 (); barriers = 0; scratch_bytes = 0 }
  in
  let dev id n = mk_op ~placement:Kernel_plan.Device_mem id (ew n) in
  let k_consumer = mk "consumer" [ dev r 4 ] in
  let k_producer = mk "producer" [ dev t 32 ] in
  (* given in the wrong order, toposort must fix it *)
  let sorted = Kernel_plan.toposort_kernels g [ k_consumer; k_producer ] in
  Alcotest.(check (list string)) "order" [ "producer"; "consumer" ]
    (List.map (fun (k : Kernel_plan.kernel) -> k.name) sorted)

(* --- kernel_work traffic -------------------------------------------------- *)

let test_kernel_work () =
  let g, t, r = tiny_plan_graph () in
  let k =
    {
      Kernel_plan.name = "k";
      kind = Kernel_plan.Codegen;
      ops =
        [
          mk_op t (ew 32);
          mk_op ~placement:Kernel_plan.Device_mem r (ew 4);
        ];
      launch = Launch.make ~grid:1 ~block:256 ();
      barriers = 0;
      scratch_bytes = 0;
    }
  in
  let plan =
    { Kernel_plan.arch = Arch.v100; graph = g; kernels = [ k ];
      memcpys = 0; memsets = 0; memcpy_bytes = 0; batch = None }
  in
  let w = Kernel_plan.kernel_work plan k in
  (* reads the 4x8 f32 parameter, writes the 4-element reduce result *)
  check_int "reads" (32 * 4) w.Astitch_simt.Cost_model.dram_read_bytes;
  check_int "writes" (4 * 4) w.Astitch_simt.Cost_model.dram_write_bytes;
  (* tanh: 28 insts x 32 elements; reduce: 32 accumulations *)
  check_int "insts" ((28 * 32) + 32) w.Astitch_simt.Cost_model.fp32_insts

(* --- Lowering helpers --------------------------------------------------------- *)

let test_lowering_helpers () =
  check_int "pow2 1" 1 (Lowering.next_pow2 0);
  check_int "pow2 5" 8 (Lowering.next_pow2 5);
  check_int "pow2 exact" 64 (Lowering.next_pow2 64);
  check_int "round 7->32" 32 (Lowering.round_up_to 32 7);
  check_int "round exact" 64 (Lowering.round_up_to 32 64);
  check_int "ceil" 4 (Lowering.ceil_div 7 2);
  (* threads_for_row: warp-rounded, capped at the block limit *)
  let tfr = Lowering.threads_for_row ~warp_size:32 ~max_block:1024 in
  check_int "tiny row" 32 (tfr 5);
  check_int "row 37" 64 (tfr 37);
  check_int "row 1024" 1024 (tfr 1024);
  check_int "huge row capped" 1024 (tfr 30_000)

let test_library_kernel_shape () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 64; 64 ] in
  let w = Builder.parameter b "w" [ 64; 64 ] in
  let d = Builder.dot b x w in
  let g = Builder.finish b ~outputs:[ d ] in
  let k = Lowering.library_kernel Arch.v100 g d in
  check "library kind" true (k.kind = Kernel_plan.Library);
  check_int "one op" 1 (List.length k.ops);
  check "grid bounded" true (k.launch.Launch.grid <= Arch.v100.num_sms * 8)

let test_memcpy_conventions () =
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4 ] in
  let y = Builder.tanh b x in
  let z = Builder.sigmoid b x in
  let g = Builder.finish b ~outputs:[ y; z ] in
  check_int "one DtoH per output" 2 (Lowering.output_memcpys g);
  check_int "output bytes" 32 (Lowering.output_bytes g)

(* --- Thread-mapping remaining branches ------------------------------------------ *)

let test_mapping_column_and_elementwise () =
  let col = Thread_mapping.Column_reduce { rows = 8; row_length = 64; block = 256; grid = 2 } in
  Thread_mapping.validate col;
  check "col atomics" true (Thread_mapping.uses_atomics col);
  check "col no contiguous" true (Thread_mapping.contiguous_outputs_per_block col = None);
  check "col no partition" true (Thread_mapping.row_partition col = None);
  let ew = Thread_mapping.Elementwise { elements = 100; block = 256; grid = 4; rows = None } in
  check_int "ew per block" 25 (Option.get (Thread_mapping.contiguous_outputs_per_block ew));
  check "strings" true
    (String.length (Thread_mapping.to_string col) > 0
    && String.length (Thread_mapping.to_string ew) > 0)

let test_remote_stitch_levels () =
  (* a 3-deep chain of clusters through compute ops keeps 3 levels *)
  let b = Builder.create () in
  let x = Builder.parameter b "x" [ 4; 4 ] in
  let w = Builder.parameter b "w" [ 4; 4 ] in
  let a1 = Builder.tanh b x in
  let d1 = Builder.dot b a1 w in
  let a2 = Builder.sigmoid b d1 in
  let d2 = Builder.dot b a2 w in
  let a3 = Builder.relu b d2 in
  let g = Builder.finish b ~outputs:[ a3 ] in
  let groups = Clustering.remote_stitch_groups g (Clustering.clusters g) in
  check_int "three sequential groups" 3 (List.length groups);
  check "all singleton" true (List.for_all (fun grp -> List.length grp = 1) groups)

let () =
  Alcotest.run "plan"
    [
      ( "mapping",
        [
          Alcotest.test_case "geometry" `Quick test_mapping_geometry;
          Alcotest.test_case "validation" `Quick test_mapping_validation;
          Alcotest.test_case "alignment" `Quick test_mapping_alignment;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "depth split" `Quick test_cluster_depth_split;
          Alcotest.test_case "remote merge" `Quick test_remote_stitch_independent;
          Alcotest.test_case "no cyclic merge" `Quick test_remote_stitch_dependent;
          Alcotest.test_case "width cap" `Quick test_remote_stitch_width_cap;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "availability" `Quick test_check_catches_unavailable;
          Alcotest.test_case "register escape" `Quick test_check_catches_register_escape;
          Alcotest.test_case "double materialize" `Quick test_check_catches_double_materialize;
          Alcotest.test_case "barrier required" `Quick test_check_barrier_required;
          Alcotest.test_case "dead consumers ignored" `Quick
            test_check_kernel_ignores_dead_consumers;
          Alcotest.test_case "toposort" `Quick test_toposort_kernels;
          Alcotest.test_case "kernel work" `Quick test_kernel_work;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "helpers" `Quick test_lowering_helpers;
          Alcotest.test_case "library kernel" `Quick test_library_kernel_shape;
          Alcotest.test_case "memcpy conventions" `Quick test_memcpy_conventions;
          Alcotest.test_case "column+elementwise" `Quick test_mapping_column_and_elementwise;
          Alcotest.test_case "remote levels" `Quick test_remote_stitch_levels;
        ] );
    ]
