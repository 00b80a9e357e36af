(* Entry point: one workload per invocation.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a report line (host block, failures, metrics) and then, as the
   last line of stdout, {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones, measured
   untraced; with --trace 1 they are the per-layer ones, from a run
   whose second half records the program's trace spans.  Exits 1 when
   any output is wrong or any request fails, 2 on a usage error. *)

let workloads =
  [
    ("compile-zoo", Compile_zoo.run);
    ("serve-steady", Serve_steady.run);
    ("zoo-overload", Zoo_overload.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let git_rev = ref "unknown" in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--git-rev", Arg.Set_string git_rev, "REV recorded in the host block");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seconds >= 1 && (!trace = 0 || !trace = 1) -> run
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let traced = !trace = 1 in
  let report = Report.create () in
  let layers = run ~seed:!seed ~seconds:!seconds ~trace:traced report in
  if traced then Layers.emit layers report
  else
    Report.add report "success_rate" "ratio"
      (float_of_int (report.attempted - report.failed)
      /. float_of_int (Stdlib.max 1 report.attempted));
  let host =
    {
      Report.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = traced;
      git_rev = !git_rev;
    }
  in
  exit (if Report.print report host then 0 else 1)
