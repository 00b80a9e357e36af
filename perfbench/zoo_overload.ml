(* zoo-overload: the model zoo (ASR latency-class, DIEN/CRNN throughput,
   Transformer/BERT best-effort) with skewed 1/(i+1) popularity at one
   fixed open-loop rate of about twice serve-steady's capacity.  Class
   priority, EDF, the fair-share floor, displacement, admission refusal
   and the plan-store load path all run here; serve-steady bypasses
   them.  Set-up is a warm restart (Zoo.create + prewarm) against a plan
   store primed in the same run. *)

open Astitch_runtime
module Serve = Astitch_serve.Serve
module Zoo = Astitch_serve.Zoo
module Slo = Astitch_serve.Slo

let deadline_us = Config.zoo_deadline_ms *. 1e3

let registrations =
  List.map
    (fun (name, cls) ->
      ( Served.model name,
        match cls with
        | `Latency -> Slo.Latency { deadline_us }
        | `Throughput -> Slo.Throughput
        | `Best_effort -> Slo.Best_effort ))
    Config.zoo_models

let class_of =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ((m : Serve.model), slo) -> Hashtbl.replace tbl m.name (Slo.class_name slo))
    registrations;
  Hashtbl.find tbl

let names = Array.of_list (List.map fst Config.zoo_models)
let weights = Array.mapi (fun i _ -> 1. /. float_of_int (i + 1)) names
let weight_total = Array.fold_left ( +. ) 0. weights

let pick st =
  let u = Random.State.float st weight_total in
  let rec go i acc =
    let acc = acc +. weights.(i) in
    if u < acc || i = Array.length names - 1 then names.(i) else go (i + 1) acc
  in
  go 0 0.

(* A fresh store directory inside the working directory, removed at the
   end of the run. *)
let store_root = ".perfbench_tmp"

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end;
  try Unix.rmdir store_root with Unix.Unix_error _ -> ()

(* The benchmark's own timed calls into the plan-store, codec, IR and
   executor layers over every plan a warm prewarm loads. *)
let probe_store layers dir =
  let store = Plan_store.open_ ~dir in
  let arch = Config.arch.Astitch_simt.Arch.name in
  List.iter
    (fun name ->
      for batch = 1 to Config.max_batch do
        let g, dt = Stats.time (fun () -> Served.build name ~batch) in
        let fingerprint, dfp =
          Stats.time (fun () -> Astitch_ir.Fingerprint.of_graph g)
        in
        let file = Filename.concat dir (Plan_store.filename ~fingerprint ~arch) in
        if Sys.file_exists file then begin
          Layers.add layers "ir.build_ms" (dt *. 1e3);
          Layers.add layers "ir.fingerprint_ms" (dfp *. 1e3);
          match Stats.time (fun () -> Plan_store.load store ~fingerprint ~arch) with
          | Plan_store.Loaded plan, dt ->
              let ms f = snd (Stats.time f) *. 1e3 in
              Layers.add layers "runtime.plan_store.load_ms" (dt *. 1e3);
              let bytes = In_channel.with_open_bin file In_channel.input_all in
              Layers.add layers "plan.bytes" (float_of_int (String.length bytes));
              Layers.add layers "plan.decode_ms"
                (ms (fun () -> Astitch_plan.Plan_codec.decode bytes));
              Layers.add layers "plan.encode_ms"
                (ms (fun () -> Astitch_plan.Plan_codec.encode plan));
              Layers.add layers "plan.check_ms"
                (ms (fun () -> Astitch_plan.Kernel_plan.check_all plan));
              Layers.add layers "runtime.create_context_ms"
                (ms (fun () -> Executor.create_context plan))
          | (Plan_store.Absent | Plan_store.Rejected _), _ -> ()
        end
      done)
    Layers.served_models

let run ~seed ~seconds ~trace report =
  let layers = Layers.create () in
  let compiles = Served.compiles () in
  Served.sample_compiles compiles;
  let dir =
    Filename.concat store_root (Printf.sprintf "store-%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let config =
    {
      Zoo.serve = Served.serve_config ~queue_depth:Config.zoo_queue_depth;
      plan_dir = Some dir;
      verify_plans = false;
    }
  in
  (* Prime the store: compile and save every plan, no traffic. *)
  let primer = Zoo.create ~config registrations in
  let primed = (Zoo.prewarm primer).compiled in
  ignore (Zoo.shutdown primer);
  let stored () = List.length (Plan_store.list (Plan_store.open_ ~dir)) in
  let primed_files = stored () in
  let setup, zoo =
    Served.repeated_setup layers
      ~stop:(fun z -> ignore (Zoo.shutdown z))
      ~start:(fun () ->
        let zoo = Zoo.create ~config registrations in
        let p = Zoo.prewarm zoo in
        if p.compiled <> 0 || p.loaded <> primed then
          Report.fail report
            (Printf.sprintf "warm restart loaded %d and compiled %d plans (primed %d)"
               p.loaded p.compiled primed);
        zoo)
  in
  if stored () <> primed_files then
    Report.fail report "warm restarts without traffic changed the plan store";
  if trace then begin
    Served.probe_exec layers;
    probe_store layers dir
  end;
  Fun.protect ~finally:(fun () -> ignore (Zoo.shutdown zoo)) @@ fun () ->
  let server = Zoo.server zoo in
  let ops =
    {
      Open_loop.submit = (fun ~model ~params -> Zoo.submit_async zoo ~model ~params);
      poll = Zoo.poll zoo;
    }
  in
  let t = Served.traffic report server ~ops ~pick ~seed in
  let rps = Config.zoo_rps in
  let warmup = Served.warmup t ~rps in
  let in_class c (r : Open_loop.result) i = class_of r.arrivals.(i).model = c in
  (* within deadline for the latency class, completed for the others *)
  let limit_of c = if c = "latency" then Config.zoo_deadline_ms else infinity in
  let class_goodput r c =
    Open_loop.goodput r ~sel:(in_class c r) ~limit_ms:(limit_of c) ()
  in
  let p50 r = Open_loop.latency_quantile r ~sel:(in_class "latency" r) 0.5 in
  let p99 r = Open_loop.windowed_quantile r ~sel:(in_class "latency" r) 0.99 in
  let seconds = float_of_int seconds in
  if not trace then begin
    let r = Served.draw t ~sample:Config.sampled_outputs ~rps ~seconds () in
    ignore (Served.play t warmup);
    let r = Served.play t r in
    Printf.eprintf "zoo %.0f rps: %d requests, refused %d, shed %d, lag max %.1f ms\n%!"
      rps (Array.length r.arrivals) r.refused r.shed r.max_lag_ms;
    Report.add report "latency_p50_ms" "ms" (p50 r);
    Report.note report "latency_p99_ms" "ms" (p99 r);
    Report.add report "goodput_rps" "1/s"
      (List.fold_left (fun acc (c, _) -> acc +. class_goodput r c) 0. Layers.classes);
    (* the rate served within its SLO, for the class that has one *)
    Report.note report "max_rps_under_slo" "1/s" (class_goodput r "latency")
  end
  else begin
    let half = seconds /. 2. in
    let plain = Served.draw t ~rps ~seconds:half () in
    let traced = Served.draw t ~sample:Config.sampled_outputs ~rps ~seconds:half () in
    let traced = Served.traced_halves t layers ~warmup ~plain ~traced ~p50 ~p99 in
    List.iter
      (fun (c, key) ->
        Layers.set layers ("serve.class." ^ key ^ ".goodput_rps")
          (class_goodput traced c);
        (* over completed requests: under 2x overload most classes miss
           more than 1%, which goodput already counts *)
        Layers.set layers ("serve.class." ^ key ^ ".p99_ms")
          (Open_loop.latency_quantile traced
             ~sel:(fun i -> in_class c traced i && traced.completed.(i))
             0.99))
      Layers.classes
  end;
  Served.finish t layers ~trace ~setup compiles
