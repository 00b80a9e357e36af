(* What the two serve workloads share: the served models' compile and
   modeled-cost figures, the per-layer probes the benchmark times itself,
   repeated set-up, open-loop traffic with its error accounting, the
   traced run's two halves, and the bit-for-bit check of sampled served
   outputs against a solo reference run. *)

open Astitch_runtime
module Serve = Astitch_serve.Serve
module Batching = Astitch_serve.Batching
module Zoo_w = Astitch_workloads.Zoo
module Tensor = Astitch_tensor.Tensor
module Metrics = Astitch_obs.Metrics
module Trace = Astitch_obs.Trace

let astitch = Astitch_core.Astitch.full_backend
let xla = Astitch_backends.Xla_backend.backend

let entry name =
  match Zoo_w.find name with
  | Some e -> e
  | None -> invalid_arg ("perfbench: unknown model " ^ name)

let model name =
  let e = entry name in
  { Serve.name = e.Zoo_w.name; build = e.Zoo_w.batched }

let serve_config ~queue_depth =
  {
    Serve.default_config with
    workers = Config.workers;
    max_batch = Config.max_batch;
    max_wait_us = Config.max_wait_us;
    queue_depth;
    verify_every = Config.verify_every;
    arch = Config.arch;
  }

let build name ~batch = (entry name).Zoo_w.batched ~batch

let dram_mb (r : Session.result) =
  List.fold_left
    (fun acc (k : Profile.kernel_profile) ->
      acc + k.work.dram_read_bytes + k.work.dram_write_bytes)
    0 r.profile.kernels
  |> fun b -> float_of_int b /. 1e6

(* Compile-time samples of the served models' max-batch graphs: what
   [warm] compiles on a cold start.  A run samples at its start and at
   its end, so one moment of host speed does not decide the figure.
   Both halves run in the same state: no server alive (its idle domains
   would join every minor collection) and a freshly compacted heap (the
   traffic's heap would change the collector's pacing).  Otherwise the
   end half reads up to 1.7x the start half, and the median of the
   pooled samples jumps with how many each half happened to get.  A
   host-speed probe follows every round of compiles (speed.ml). *)
type compiles = { samples : (string * float list ref) list; speed : Speed.t }

let compiles () =
  {
    samples = List.map (fun name -> (name, ref [])) Layers.served_models;
    speed = Speed.create ();
  }

let sample_compiles c =
  let compile name =
    let g = build name ~batch:Config.max_batch in
    snd (Stats.time (fun () -> Session.compile astitch Config.arch g))
  in
  Gc.compact ();
  (* one unmeasured round first: the process's first compiles pay for
     heap growth, not for the compiler *)
  List.iter (fun (name, _) -> ignore (compile name)) c.samples;
  let t0 = Stats.now () in
  while Stats.now () -. t0 < Config.compile_sample_s /. 2. do
    List.iter (fun (name, l) -> l := compile name :: !l) c.samples;
    Speed.probe c.speed
  done

(* compile_ms_geomean from the samples at the reference speed, and
   modeled_gpu_ms and modeled_speedup_vs_xla over the served plans;
   simt.* into [layers]. *)
let modeled ?report layers c =
  let rows =
    List.map
      (fun (name, l) ->
        let g = build name ~batch:Config.max_batch in
        let a = Session.compile astitch Config.arch g in
        let x = Session.compile xla Config.arch g in
        (Stats.median (Array.of_list !l) *. 1e3, a, x))
      c.samples
  in
  let total (r : Session.result) = r.profile.Profile.total_time_us /. 1e3 in
  Layers.set layers "simt.kernels"
    (float_of_int
       (List.fold_left (fun acc (_, a, _) -> acc + List.length a.Session.plan.kernels) 0 rows));
  Layers.set layers "simt.dram_mb"
    (List.fold_left (fun acc (_, a, _) -> acc +. dram_mb a) 0. rows);
  Option.iter
    (fun report ->
      let measured =
        Stats.geomean (Array.of_list (List.map (fun (t, _, _) -> t) rows))
      in
      Report.add report "compile_ms_geomean" "ms" (measured *. Speed.scale c.speed);
      Report.note report "compile_ms_geomean_measured" "ms" measured;
      Report.note report "speed_probe_ms" "ms" (Speed.probe_ms c.speed);
      Report.add report "modeled_gpu_ms" "model_ms"
        (List.fold_left (fun acc (_, a, _) -> acc +. total a) 0. rows);
      Report.add report "modeled_speedup_vs_xla" "x"
        (Stats.geomean
           (Array.of_list (List.map (fun (_, a, x) -> total x /. total a) rows))))
    report

(* The benchmark's own timed calls into the IR and executor layers for
   what a cold start builds: each served model's max-batch graph, its
   fingerprint and an execution context for its plan. *)
let probe_cold layers =
  List.iter
    (fun name ->
      let g, dt = Stats.time (fun () -> build name ~batch:Config.max_batch) in
      Layers.add layers "ir.build_ms" (dt *. 1e3);
      let _, dt = Stats.time (fun () -> Astitch_ir.Fingerprint.of_graph g) in
      Layers.add layers "ir.fingerprint_ms" (dt *. 1e3);
      let plan = (Session.compile astitch Config.arch g).plan in
      let _, dt = Stats.time (fun () -> Executor.create_context plan) in
      Layers.add layers "runtime.create_context_ms" (dt *. 1e3))
    Layers.served_models

(* Batch-axis analysis per served builder, and run_context on batch-1 and
   max-batch plans (median of [run_context_reps] runs after one
   unmeasured run). *)
let run_context_reps = 25

let probe_exec layers =
  List.iter
    (fun name ->
      let _, dt =
        Stats.time (fun () -> Batching.analyze (fun batch -> build name ~batch))
      in
      Layers.add layers "serve.batching.analyze_ms" (dt *. 1e3);
      List.iter
        (fun b ->
          let g = build name ~batch:b in
          let ctx =
            Executor.create_context (Session.compile astitch Config.arch g).plan
          in
          let params = Session.random_params ~seed:b g in
          ignore (Executor.run_context ctx ~params);
          let times =
            Array.init run_context_reps (fun _ ->
                snd (Stats.time (fun () -> Executor.run_context ctx ~params)))
          in
          Layers.set layers
            (Printf.sprintf "runtime.run_context_us.%s.b%d" name b)
            (Stats.median times *. 1e6))
        [ 1; Config.max_batch ])
    Layers.served_models

(* --- Set-up ------------------------------------------------------------- *)

(* Start [Config.setup_repeats] instances one after another, stopping
   each before the next starts; the metrics registry is reset before
   every start, so the plan-cache counters read the last one.  Returns
   the start times and the last instance, which serves the traffic. *)
let repeated_setup layers ~start ~stop =
  let times = Array.make Config.setup_repeats 0. in
  let last = ref None in
  for k = 0 to Config.setup_repeats - 1 do
    Option.iter stop !last;
    Metrics.reset Metrics.default;
    let x, dt = Stats.time start in
    times.(k) <- dt;
    last := Some x
  done;
  Layers.set_cache_counters layers;
  (times, Option.get !last)

(* --- Scheduler counters ----------------------------------------------- *)

type counters = {
  shed : int;
  rejected : int;
  displaced : int;
  floor_picks : int;
  retried : int;
  plan_compiles : int;
  padded_rows : int;
  quarantined : int;
}

let counters server =
  let s = Serve.stats server in
  {
    shed = s.shed;
    rejected = s.rejected;
    displaced = s.displaced;
    floor_picks = s.floor_picks;
    retried = s.retried;
    plan_compiles = s.plan_compiles;
    padded_rows = s.padded_rows;
    quarantined = (Serve.supervision server).quarantined;
  }

let set_counters layers (a : counters) (b : counters) =
  let d f = float_of_int (f b - f a) in
  Layers.set layers "serve.shed" (d (fun c -> c.shed));
  Layers.set layers "serve.rejected" (d (fun c -> c.rejected));
  Layers.set layers "serve.displaced" (d (fun c -> c.displaced));
  Layers.set layers "serve.floor_picks" (d (fun c -> c.floor_picks));
  Layers.set layers "serve.retried" (d (fun c -> c.retried));
  Layers.set layers "serve.plan_compiles" (d (fun c -> c.plan_compiles));
  Layers.set layers "serve.padded_rows" (d (fun c -> c.padded_rows))

(* A batch that raises - a verify_every mismatch does - quarantines its
   context and goes down the recovery path, which would otherwise hide
   it from the outcomes.  Retries alone are not errors: a host stall
   past the wedge timeout makes supervision steal and re-run a batch,
   and first-wins completion keeps its outputs exact. *)
let check_supervision report server =
  let c = counters server in
  if c.quarantined > 0 then
    Report.fail report
      (Printf.sprintf "%d batches raised (contexts quarantined)" c.quarantined);
  if c.padded_rows > 0 then
    Report.fail report (Printf.sprintf "%d padded rows" c.padded_rows)

(* --- Open-loop traffic ------------------------------------------------- *)

(* Segments are drawn before the clock starts and played later; every
   played segment is accounted in [report] and keeps its sampled
   outputs for [verify]. *)
type traffic = {
  report : Report.t;
  server : Serve.t;
  ops : Open_loop.ops;
  pick : Random.State.t -> string;
  st : Random.State.t;
  payloads : string -> (string * Tensor.t) list array;
  mutable samples : (Open_loop.arrival * Tensor.t list) list;
}

let traffic report server ~ops ~pick ~seed =
  let pools = Hashtbl.create 8 in
  List.iter
    (fun name ->
      Hashtbl.replace pools name
        (Array.init Config.payloads_per_model (fun i ->
             Serve.random_request server ~model:name ~seed:((seed * 7919) + i))))
    Layers.served_models;
  {
    report;
    server;
    ops;
    pick;
    st = Random.State.make [| seed; 0x5e7e |];
    payloads = Hashtbl.find pools;
    samples = [];
  }

type segment = Open_loop.arrival array * (int -> bool)

let draw t ?(sample = 0) ~rps ~seconds () : segment =
  let arrivals = Open_loop.schedule t.st ~rps ~seconds ~pick:t.pick in
  let keep =
    Open_loop.sampler ~seed:(Random.State.bits t.st)
      ~n:(Array.length arrivals) ~count:sample
  in
  (arrivals, keep)

let warmup t ~rps = draw t ~rps ~seconds:(float_of_int Config.warmup_requests /. rps) ()

let play t ((arrivals, keep) : segment) =
  let r = Open_loop.run t.ops ~payloads:t.payloads ~keep arrivals in
  Report.attempt t.report (Array.length r.arrivals);
  List.iter (fun why -> Report.fail t.report ("request failed: " ^ why)) r.failures;
  for _ = 1 to r.lost do
    Report.fail t.report "request lost: no outcome within the drain timeout"
  done;
  t.samples <-
    List.map (fun (i, outputs) -> (r.arrivals.(i), outputs)) r.kept @ t.samples;
  r

(* The traced run's traffic after [warmup]: an untraced half (GC deltas
   and the overhead baseline), then a half recorded by a trace sink.
   [p50]/[p99] read the workload's headline latency. *)
let traced_halves t layers ~warmup ~plain ~traced ~p50 ~p99 =
  ignore (play t warmup);
  Metrics.reset Metrics.default;
  let g0 = Layers.gc_now () in
  let plain = play t plain in
  Layers.set_gc layers ~ops:(Array.length plain.arrivals) g0 (Layers.gc_now ());
  let c0 = counters t.server in
  Metrics.reset Metrics.default;
  Trace.install ~capacity:Layers.trace_capacity ();
  let traced = play t traced in
  Layers.add_compile_phases layers (Trace.uninstall ());
  set_counters layers c0 (counters t.server);
  Layers.set_serve_phases layers;
  Layers.set layers "serve.submit_us.p50" (Stats.median traced.submit_us);
  Layers.set layers "serve.generator_lag_ms.max" traced.max_lag_ms;
  Layers.set layers "client.latency_p99_ms" (p99 traced);
  Layers.set layers "trace.overhead_pct" ((p50 traced /. p50 plain -. 1.) *. 100.);
  traced

(* --- Served outputs vs a solo reference ---------------------------------- *)

let bitwise a b =
  Astitch_ir.Shape.equal (Tensor.shape a) (Tensor.shape b)
  &&
  let db = Tensor.data b in
  Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
    (Tensor.data a) db

let all_bitwise xs ys =
  List.length xs = List.length ys && List.for_all2 bitwise xs ys

(* After the traffic: supervision counters, then each sampled served
   output against a fresh batch-1 compile run on the server's shared
   weights, itself checked against the reference interpreter. *)
let verify t =
  Serve.drain t.server;
  check_supervision t.report t.server;
  let refs = Hashtbl.create 8 in
  let reference name =
    match Hashtbl.find_opt refs name with
    | Some r -> r
    | None ->
        let spec = Serve.spec t.server ~model:name in
        let plan = (Session.compile astitch Config.arch spec.base).plan in
        let r = (spec.base, Executor.create_context plan) in
        Hashtbl.replace refs name r;
        r
  in
  List.iter
    (fun ((a : Open_loop.arrival), outputs) ->
      let g, ctx = reference a.model in
      let params =
        Serve.shared_weights t.server ~model:a.model
        @ (t.payloads a.model).(a.payload)
      in
      let solo = Executor.run_context ctx ~params in
      if not (all_bitwise solo (Astitch_tensor.Interp.run g ~params)) then
        Report.fail t.report (a.model ^ ": solo reference differs from Interp")
      else if not (all_bitwise outputs solo) then
        Report.fail t.report (a.model ^ ": served output differs from the solo reference"))
    t.samples;
  if t.samples = [] then
    Report.fail t.report "no served output was sampled for verification"

(* The end of a serve workload: verify, read set-up and heap, stop the
   server, then the second half of the compile samples and the modeled
   figures. *)
let finish t layers ~trace ~setup compiles =
  verify t;
  if not trace then Report.add_setup_and_heap t.report setup;
  Serve.shutdown t.server;
  sample_compiles compiles;
  modeled ?report:(if trace then None else Some t.report) layers compiles;
  layers
