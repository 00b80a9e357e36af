(* Batched-serving throughput benchmark: the server vs a sequential
   per-request loop.

   For each zoo workload, [requests] identical-shape requests are
   pushed through two paths:

     sequential - per-request execution as a non-batching deployment
                  would do it: a plan-cache lookup (always a hit after
                  the first request) plus one [Executor.run] per
                  request.  Compilation is amortized; what this
                  baseline does NOT have is exactly what the serving
                  runtime adds - pooled reusable contexts and dynamic
                  batching - which is the subsystem under test.

     serve      - the batched serving runtime: open-loop submission of
                  all requests at once (so >= max_batch are in flight
                  throughout - request concurrency 8 with the default
                  cap), continuous batching (every dispatch executes at
                  exactly its request count, no padded rows), pooled
                  shape-polymorphic contexts on the worker pool, drain.

   The worker-domain count adapts to the machine: on a many-core host
   the pool (capped at 8 domains) adds real parallelism on top of
   batching; on a 1-core runner worker domains only add stop-the-world
   GC synchronization, so the bench uses caller-runs mode (workers = 0)
   and batching plus context reuse carry the win alone.

   A third leg exercises the continuous-batching contract directly:
   bursts of ODD sizes (3, 5, 7, ... - sizes the old power-of-two
   bucketing always padded) arrive with exponential gaps at an odd
   [max_batch], and the run asserts zero padded rows, zero lost
   requests, exactly one plan compile and a context pool of size 1.

   The reported speedup is served throughput over sequential
   throughput.  Results go to BENCH_serve.json one "key": value per
   line (same writer/reader convention as BENCH_serving.json - no JSON
   library in the tree).

   [check] compares a fresh quick run against the committed baseline:
   per-workload speedup must not regress below half the baseline's,
   and ASR and DIEN must keep the >= 2x acceptance bar. *)

open Astitch_simt
open Astitch_runtime
module Serve = Astitch_serve.Serve
module Request = Astitch_serve.Request

type row = {
  name : string;
  requests : int;
  workers : int;
  max_batch : int;
  seq_wall_us : float;
  seq_rps : float;
  serve_wall_us : float;
  serve_rps : float;
  speedup : float;
  batches : int;
  mean_batch : float;
  padded_rows : int;
  plan_compiles : int;
  lat_p50_us : float;
  lat_p95_us : float;
  lat_p99_us : float;
  phases : (string * float * float * float) list;
      (** lifecycle-phase latency decomposition, [(phase, p50, p95, p99)]
          in pipeline order - queue, batch_wait, pack, exec, unpack *)
}

(* The sequential leg: the same graphs, weights and request payloads the
   server will see, one cache-hit compile lookup + one fresh
   [Executor.run] per request - per-request execution without the serve
   runtime's context pooling or batching. *)
let sequential_leg (entry : Astitch_workloads.Zoo.entry) ~shared ~payloads =
  let g = entry.batched ~batch:1 in
  let backend = Astitch_core.Astitch.full_backend in
  let cache = Session.make_cache () in
  (* warm the cache outside the clock, mirroring Serve.warm *)
  let warm, _ = Session.compile_cached cache backend Arch.v100 g in
  (match payloads with
  | p :: _ -> ignore (Executor.run warm.Session.plan ~params:(shared @ p))
  | [] -> ());
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun p ->
      let r, _ = Session.compile_cached cache backend Arch.v100 g in
      ignore
        (Sys.opaque_identity (Executor.run r.Session.plan ~params:(shared @ p))))
    payloads;
  (Unix.gettimeofday () -. t0) *. 1e6

let serve_leg (entry : Astitch_workloads.Zoo.entry) ~workers ~max_batch
    ~payloads =
  let config =
    {
      Serve.default_config with
      workers;
      max_batch;
      max_wait_us = 500.;
      queue_depth = 2 * List.length payloads;
    }
  in
  let server =
    Serve.create ~config
      [ { Serve.name = entry.name; build = entry.batched } ]
  in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      Serve.warm server;
      let t0 = Unix.gettimeofday () in
      let tickets =
        List.map
          (fun params ->
            match Serve.submit_async server ~model:entry.name ~params with
            | Ok t -> t
            | Error o ->
                failwith
                  (Printf.sprintf "%s: request refused: %s" entry.name
                     (Request.overload_to_string o)))
          payloads
      in
      Serve.drain server;
      let wall = (Unix.gettimeofday () -. t0) *. 1e6 in
      List.iter
        (fun t ->
          match Serve.await server t with
          | Request.Done _ -> ()
          | Request.Failed m ->
              failwith (Printf.sprintf "%s: request failed: %s" entry.name m)
          | Request.Overloaded o ->
              failwith
                (Printf.sprintf "%s: request shed: %s" entry.name
                   (Request.overload_to_string o)))
        tickets;
      (wall, Serve.stats server))

let bench_workload ~requests ~workers ~max_batch
    (entry : Astitch_workloads.Zoo.entry) =
  (* one spec analysis to generate identical weights/payloads for both
     legs; the server regenerates the same weights from the same seed *)
  let spec = Astitch_serve.Batching.analyze (fun b -> entry.batched ~batch:b) in
  let payloads =
    List.init requests (fun i ->
        Astitch_serve.Batching.random_request spec ~seed:(Serve.default_config.seed + i))
  in
  let reg = Astitch_obs.Metrics.default in
  Astitch_obs.Metrics.reset reg;
  let serve_wall_us, stats = serve_leg entry ~workers ~max_batch ~payloads in
  let h = Astitch_obs.Metrics.histogram reg "serve.request_us" in
  let lat_p50_us = Astitch_obs.Metrics.quantile h 0.50
  and lat_p95_us = Astitch_obs.Metrics.quantile h 0.95
  and lat_p99_us = Astitch_obs.Metrics.quantile h 0.99 in
  (* the per-phase decomposition captured during the serve leg (the
     registry was reset just before it, so these are this workload's) *)
  let phases =
    List.map
      (fun phase ->
        let h =
          Astitch_obs.Metrics.histogram reg ("serve." ^ phase ^ "_us")
        in
        let q p = Astitch_obs.Metrics.quantile h p in
        (phase, q 0.50, q 0.95, q 0.99))
      [ "queue"; "batch_wait"; "pack"; "exec"; "unpack" ]
  in
  let mean_batch =
    Astitch_obs.Metrics.hist_mean
      (Astitch_obs.Metrics.histogram reg "serve.batch_size")
  in
  (* the server's shared weights: regenerate through its own recipe so
     the sequential leg computes the same numbers *)
  let shared =
    let server =
      Serve.create
        ~config:{ Serve.default_config with workers = 1 }
        [ { Serve.name = entry.name; build = entry.batched } ]
    in
    Fun.protect
      ~finally:(fun () -> Serve.shutdown server)
      (fun () -> Serve.shared_weights server ~model:entry.name)
  in
  let seq_wall_us = sequential_leg entry ~shared ~payloads in
  let n = float_of_int requests in
  let seq_rps = n /. (seq_wall_us /. 1e6)
  and serve_rps = n /. (serve_wall_us /. 1e6) in
  {
    name = entry.name;
    requests;
    workers;
    max_batch;
    seq_wall_us;
    seq_rps;
    serve_wall_us;
    serve_rps;
    speedup = serve_rps /. seq_rps;
    batches = stats.Serve.batches;
    mean_batch;
    padded_rows = stats.Serve.padded_rows;
    plan_compiles = stats.Serve.plan_compiles;
    lat_p50_us;
    lat_p95_us;
    lat_p99_us;
    phases;
  }

(* --- Continuous-batching leg --------------------------------------------- *)

(* Bursts of odd sizes with exponential inter-burst gaps, served
   caller-runs at an odd [max_batch]: every shape the power-of-two
   bucketing used to pad.  Each burst is awaited before the next
   arrives, so it dispatches as one batch of exactly its (odd) size
   once the batching window expires.  Asserts the continuous-batching
   contract: zero padded rows, zero lost requests, exactly one plan
   compile and a context pool of size 1. *)
let continuous_leg (entry : Astitch_workloads.Zoo.entry) =
  let max_batch = 7 in
  let bursts = [ 3; 5; 7; 1; 5; 3 ] in
  let config =
    {
      Serve.default_config with
      workers = 0;
      max_batch;
      max_wait_us = 300.;
      queue_depth = 64;
    }
  in
  let server =
    Serve.create ~config [ { Serve.name = entry.name; build = entry.batched } ]
  in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      Serve.warm server;
      let st = Random.State.make [| 0xC0FFEE |] in
      let seed = ref 0 in
      List.iter
        (fun burst ->
          (* exponential gap between bursts (mean 1 ms) *)
          Unix.sleepf
            (-.Float.log (1. -. Random.State.float st 1.) /. 1000.);
          let tickets =
            List.init burst (fun _ ->
                incr seed;
                let params =
                  Serve.random_request server ~model:entry.name ~seed:!seed
                in
                match Serve.submit_async server ~model:entry.name ~params with
                | Ok t -> t
                | Error o ->
                    failwith
                      (Printf.sprintf "%s: continuous leg refused: %s"
                         entry.name
                         (Request.overload_to_string o)))
          in
          List.iter
            (fun t ->
              match Serve.await server t with
              | Request.Done { degraded = false; _ } -> ()
              | Request.Done { degraded = true; _ } ->
                  failwith (entry.name ^ ": continuous leg degraded")
              | Request.Failed m ->
                  failwith (entry.name ^ ": continuous leg failed: " ^ m)
              | Request.Overloaded o ->
                  failwith
                    (entry.name ^ ": continuous leg shed: "
                   ^ Request.overload_to_string o))
            tickets)
        bursts;
      Serve.drain server;
      let stats = Serve.stats server in
      let disp = Serve.disposition server in
      let pool_sizes = Serve.context_pool_sizes server in
      if stats.Serve.padded_rows <> 0 then
        failwith
          (Printf.sprintf "%s: %d padded rows under continuous batching"
             entry.name stats.Serve.padded_rows);
      if disp.Serve.lost <> 0 then
        failwith
          (Printf.sprintf "%s: %d requests lost" entry.name disp.Serve.lost);
      if stats.Serve.plan_compiles <> 1 then
        failwith
          (Printf.sprintf "%s: %d plan compiles (want 1)" entry.name
             stats.Serve.plan_compiles);
      (match pool_sizes with
      | [ (_, 1) ] -> ()
      | _ ->
          failwith
            (Printf.sprintf "%s: context pool is not a single context"
               entry.name));
      Printf.printf
        "continuous %-12s OK: %d odd-size batches, 0 padded rows, 1 plan \
         compile, pool 1\n"
        entry.name stats.Serve.batches)

(* --- Reporting ----------------------------------------------------------- *)

let print_table rows =
  (match rows with
  | r :: _ ->
      Printf.printf
        "=== Batched serving vs sequential (max batch %d, workers %d%s) ===\n"
        r.max_batch r.workers
        (if r.workers = 0 then " [caller-runs]" else "")
  | [] -> ());
  Printf.printf
    "%-12s %8s %12s %12s %12s %12s %8s %8s %10s %6s %8s %9s %9s %9s\n"
    "workload" "requests" "seq-wall-us" "seq-rps" "serve-wall" "serve-rps"
    "speedup" "batches" "mean-batch" "padded" "compiles" "lat-p50"
    "lat-p95" "lat-p99";
  List.iter
    (fun r ->
      Printf.printf
        "%-12s %8d %12.0f %12.1f %12.0f %12.1f %7.2fx %8d %10.2f %6d %8d \
         %9.0f %9.0f %9.0f\n"
        r.name r.requests r.seq_wall_us r.seq_rps r.serve_wall_us r.serve_rps
        r.speedup r.batches r.mean_batch r.padded_rows r.plan_compiles
        r.lat_p50_us r.lat_p95_us r.lat_p99_us)
    rows

let write_json ~path ~quick rows =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"astitch-serve-bench-v1\",\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      p "    {\n";
      p "      \"name\": \"%s\",\n" r.name;
      p "      \"requests\": %d,\n" r.requests;
      p "      \"workers\": %d,\n" r.workers;
      p "      \"max_batch\": %d,\n" r.max_batch;
      p "      \"seq_wall_us\": %.1f,\n" r.seq_wall_us;
      p "      \"seq_rps\": %.1f,\n" r.seq_rps;
      p "      \"serve_wall_us\": %.1f,\n" r.serve_wall_us;
      p "      \"serve_rps\": %.1f,\n" r.serve_rps;
      p "      \"speedup\": %.2f,\n" r.speedup;
      p "      \"batches\": %d,\n" r.batches;
      p "      \"mean_batch\": %.2f,\n" r.mean_batch;
      p "      \"padded_rows\": %d,\n" r.padded_rows;
      p "      \"plan_compiles\": %d,\n" r.plan_compiles;
      p "      \"latency_p50_us\": %.1f,\n" r.lat_p50_us;
      p "      \"latency_p95_us\": %.1f,\n" r.lat_p95_us;
      p "      \"latency_p99_us\": %.1f,\n" r.lat_p99_us;
      p "      \"phases\": {\n";
      List.iteri
        (fun j (phase, p50, p95, p99) ->
          p
            "        \"%s\": { \"p50_us\": %.1f, \"p95_us\": %.1f, \
             \"p99_us\": %.1f }%s\n"
            phase p50 p95 p99
            (if j = List.length r.phases - 1 then "" else ","))
        r.phases;
      p "      }\n";
      p "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* --- Baseline parsing / regression check --------------------------------- *)

let read_baseline path =
  let ic = open_in path in
  let rows = ref [] in
  let current = ref None in
  let field line key =
    let prefix = Printf.sprintf "\"%s\":" key in
    let line = String.trim line in
    if
      String.length line > String.length prefix
      && String.sub line 0 (String.length prefix) = prefix
    then
      let v =
        String.sub line (String.length prefix)
          (String.length line - String.length prefix)
        |> String.trim
      in
      let v =
        if String.length v > 0 && v.[String.length v - 1] = ',' then
          String.sub v 0 (String.length v - 1)
        else v
      in
      Some v
    else None
  in
  (try
     while true do
       let line = input_line ic in
       (match field line "name" with
       | Some v ->
           let name = String.sub v 1 (String.length v - 2) in
           current := Some name
       | None -> ());
       match (field line "speedup", !current) with
       | Some v, Some name ->
           rows := (name, float_of_string v) :: !rows;
           current := None
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

let check ~label base rows =
  let failures = ref [] in
  List.iter
    (fun r ->
      match List.assoc_opt r.name base with
      | None -> ()
      | Some expect ->
          if r.speedup < expect /. 2. then
            failures :=
              Printf.sprintf
                "%s: serve speedup %.2fx regressed below half the baseline \
                 %.2fx"
                r.name r.speedup expect
              :: !failures)
    rows;
  (* the acceptance bar: batched serving at concurrency 8 must at least
     double sequential throughput on the RNN-heavy workloads *)
  List.iter
    (fun r ->
      if List.mem r.name [ "ASR"; "DIEN" ] && r.speedup < 2.0 then
        failures :=
          Printf.sprintf
            "%s: serve speedup %.2fx is below the 2x acceptance bar" r.name
            r.speedup
          :: !failures)
    rows;
  (* continuous batching never pads, and every model compiles exactly
     one plan however many batch sizes it served *)
  List.iter
    (fun r ->
      if r.padded_rows <> 0 then
        failures :=
          Printf.sprintf "%s: %d padded rows executed (want 0)" r.name
            r.padded_rows
          :: !failures;
      if r.plan_compiles <> 1 then
        failures :=
          Printf.sprintf "%s: %d plan compiles (want 1)" r.name
            r.plan_compiles
          :: !failures)
    rows;
  match !failures with
  | [] ->
      Printf.printf "serve bench check OK (%d workloads vs %s)\n"
        (List.length rows) label
  | fs ->
      List.iter prerr_endline fs;
      exit 1

let run ?(quick = false) ?(out = "BENCH_serve.json") ?baseline () =
  let base = Option.map (fun b -> (b, read_baseline b)) baseline in
  let requests = if quick then 96 else 512 in
  let workers =
    let cores = Astitch_core.Parallel.recommended_domains () in
    if cores > 1 then Stdlib.min 8 cores else 0
  in
  let rows =
    List.map
      (bench_workload ~requests ~workers ~max_batch:8)
      Astitch_workloads.Zoo.all
  in
  print_table rows;
  (* the continuous-batching contract, exercised at odd sizes: raises
     on any padded row, lost request, or extra plan compile *)
  List.iter continuous_leg Astitch_workloads.Zoo.all;
  write_json ~path:out ~quick rows;
  Option.iter (fun (label, b) -> check ~label b rows) base
