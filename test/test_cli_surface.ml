(* End-to-end coverage of the code paths behind the CLI (invoked as
   library calls; cmdliner wiring itself is exercised manually). *)

open Astitch_ir
open Astitch_simt
open Astitch_plan
open Astitch_runtime

let check = Alcotest.(check bool)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

(* the `compare` path over every registered model (tiny variants) *)
let test_compare_path_all_models () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.tiny () in
      let results =
        Session.compare_backends
          [
            Astitch_backends.Tf_backend.backend;
            Astitch_backends.Xla_backend.backend;
            Astitch_core.Astitch.full_backend;
          ]
          Arch.v100 g
      in
      match results with
      | [ tf; xla; astitch ] ->
          check (e.name ^ ": astitch <= xla <= tf kernels") true
            (Profile.mem_kernel_count astitch.profile
             <= Profile.mem_kernel_count xla.profile
            && Profile.mem_kernel_count xla.profile
               <= Profile.mem_kernel_count tf.profile)
      | _ -> Alcotest.fail "three results expected")
    Astitch_workloads.Zoo.all

(* the `cuda` path renders every model's stitched plan *)
let test_cuda_path_all_models () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.tiny () in
      let plan = Astitch_core.Astitch.compile Arch.v100 g in
      let text = Astitch_core.Codegen.emit_plan plan in
      check (e.name ^ " emits kernels") true (contains text "__global__"))
    Astitch_workloads.Zoo.all

(* the `text --simplify` path round-trips every model *)
let test_text_simplify_path () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.tiny () in
      let g', _ = Simplify.run g in
      let text = Text_format.to_string g' in
      let g2 = Text_format.parse text in
      check (e.name ^ " round-trips after simplify") true
        (Text_format.to_string g2 = text))
    Astitch_workloads.Zoo.all

(* the `dot` path *)
let test_dot_path () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let dot = Dot.to_string (e.tiny ()) in
      check (e.name ^ " dot export") true (contains dot "digraph"))
    Astitch_workloads.Zoo.all

(* the `inspect` statistics path *)
let test_inspect_path () =
  List.iter
    (fun (e : Astitch_workloads.Zoo.entry) ->
      let g = e.tiny () in
      let st = Graph.stats g in
      let clusters = Clustering.clusters g in
      check (e.name ^ " sane stats") true
        (st.total_ops = Graph.num_nodes g
        && st.memory_intensive_ops + st.compute_intensive_ops = st.total_ops
        && clusters <> []))
    Astitch_workloads.Zoo.all

(* the `bench` lookup: an unknown experiment id is a structured
   [Unknown_name] error whose message lists every valid id *)
let test_bench_unknown_id () =
  let module E = Astitch_experiments.Experiments in
  match E.run "no-such-experiment" with
  | () -> Alcotest.fail "expected Unknown_name"
  | exception
      Compile_error.Error
        {
          violations = [ { kind = Compile_error.Unknown_name; message; _ } ];
          _;
        } ->
      List.iter
        (fun (id, _, _) ->
          check ("message lists " ^ id) true (contains message id))
        E.all

let () =
  Alcotest.run "cli_surface"
    [
      ( "paths",
        [
          Alcotest.test_case "compare" `Quick test_compare_path_all_models;
          Alcotest.test_case "cuda" `Quick test_cuda_path_all_models;
          Alcotest.test_case "text --simplify" `Quick test_text_simplify_path;
          Alcotest.test_case "dot" `Quick test_dot_path;
          Alcotest.test_case "inspect" `Quick test_inspect_path;
          Alcotest.test_case "bench unknown id" `Quick test_bench_unknown_id;
        ] );
    ]
