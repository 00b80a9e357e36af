(* Multi-tenant zoo benchmark: SLO-class scheduling under overload,
   plus the plan store's warm-restart win.

   All five zoo workloads are hosted in one zoo behind a shared worker
   pool, with mixed SLO classes and skewed popularity (the first-listed
   model is hottest, weight 1/(i+1)):

     ASR          latency      (calibrated deadline, EDF dispatch)
     DIEN         throughput
     CRNN         throughput
     Transformer  best-effort
     BERT         best-effort

   The run first measures the zoo's service capacity (full-blast
   submission, no pacing), calibrates the latency-class deadline from
   it, then drives two open-loop legs with exponential inter-arrivals:
   one at the measured capacity (1x) and one at twice it (2x, sustained
   overload).  Per leg it reports per-SLO-class latency quantiles and
   goodput - deadline-met completions per second for the latency class,
   completions per second for the others.

   The multi-tenant contract under test: at 2x overload the latency
   class still meets its deadline at p99 (strict class priority + EDF
   jump the queue), while best-effort keeps nonzero goodput (the
   fair-share floor guarantees "whatever is left" never rounds down to
   zero).

   A final leg times the persistent plan store: cold prewarm (compile
   everything, save) vs warm prewarm (load everything) against the same
   directory, asserting the warm restart compiles nothing.

   Results go to BENCH_zoo.json; [check] compares a fresh quick run
   against the committed baseline with the same line-based reader
   convention as the other bench files (no JSON library in the tree). *)

module Zoo = Astitch_serve.Zoo
module Slo = Astitch_serve.Slo
module Serve = Astitch_serve.Serve
module Request = Astitch_serve.Request

(* Popularity order: hottest first. *)
let entry name =
  match Astitch_workloads.Zoo.find name with
  | Some e -> e
  | None -> failwith ("zoo bench: unknown workload " ^ name)

let model_names = [ "ASR"; "DIEN"; "CRNN"; "Transformer"; "BERT" ]

let registrations ~deadline_us =
  let model name =
    let e = entry name in
    { Serve.name = e.Astitch_workloads.Zoo.name;
      build = e.Astitch_workloads.Zoo.batched }
  in
  [
    (model "ASR", Slo.Latency { deadline_us });
    (model "DIEN", Slo.Throughput);
    (model "CRNN", Slo.Throughput);
    (model "Transformer", Slo.Best_effort);
    (model "BERT", Slo.Best_effort);
  ]

let weights = Array.init 5 (fun i -> 1. /. float_of_int (i + 1))
let weight_total = Array.fold_left ( +. ) 0. weights

let skewed_pick st =
  let u = Random.State.float st weight_total in
  let rec go i acc =
    if i >= Array.length weights - 1 then List.nth model_names i
    else
      let acc = acc +. weights.(i) in
      if u < acc then List.nth model_names i else go (i + 1) acc
  in
  go 0 0.

let zoo_config ~workers ~deadline_us:_ ~plan_dir ~verify_plans =
  {
    Zoo.serve =
      {
        Serve.default_config with
        workers;
        max_batch = 8;
        max_wait_us = 500.;
        queue_depth = 64;
      };
    plan_dir;
    verify_plans;
  }

type class_row = {
  cls : string;
  submitted : int;
  completed : int;
  shed : int;
  rejected : int;
  deadline_met : int;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  goodput_rps : float;
      (** deadline-met (latency class) or completed (others) per second
          of leg wall time *)
}

type leg = {
  load : float;  (** arrival rate as a multiple of measured capacity *)
  arrival_rps : float;  (** 0 = full blast *)
  requests : int;
  wall_s : float;
  failed : int;
  classes : class_row list;
}

(* One open-loop run: [requests] draws from the skewed popularity
   distribution, exponential inter-arrivals at [arrival] req/s (0 =
   submit as fast as possible), drain, await everything.  Returns the
   leg row; raises on any failed request (supervision promises none). *)
let run_leg ~label ~load ~workers ~arrival ~requests ~deadline_us =
  let config =
    zoo_config ~workers ~deadline_us ~plan_dir:None ~verify_plans:false
  in
  let zoo = Zoo.create ~config (registrations ~deadline_us) in
  Fun.protect
    ~finally:(fun () -> Zoo.shutdown zoo)
    (fun () ->
      ignore (Zoo.prewarm zoo);
      let server = Zoo.server zoo in
      let st = Random.State.make [| 0x5EED + int_of_float (load *. 10.) |] in
      let t0 = Unix.gettimeofday () in
      let clock = ref 0. in
      let tickets =
        List.filter_map
          (fun i ->
            (if arrival > 0. then begin
               let gap =
                 -.Float.log (1. -. Random.State.float st 1.) /. arrival
               in
               clock := !clock +. gap;
               let until = t0 +. !clock -. Unix.gettimeofday () in
               if until > 0. then Unix.sleepf until
             end);
            let model = skewed_pick st in
            let params = Serve.random_request server ~model ~seed:(7 * i) in
            match Zoo.submit_async zoo ~model ~params with
            | Ok t -> Some t
            | Error _ -> None)
          (List.init requests Fun.id)
      in
      Zoo.drain zoo;
      let failed = ref 0 in
      List.iter
        (fun t ->
          match Zoo.await zoo t with
          | Request.Failed _ -> incr failed
          | Request.Done _ | Request.Overloaded _ -> ())
        tickets;
      let wall_s = Unix.gettimeofday () -. t0 in
      let classes =
        List.map
          (fun (c : Zoo.class_stats) ->
            let numerator =
              if c.Zoo.cls = "latency" then c.Zoo.deadline_met
              else c.Zoo.completed
            in
            {
              cls = c.Zoo.cls;
              submitted = c.Zoo.submitted;
              completed = c.Zoo.completed;
              shed = c.Zoo.shed;
              rejected = c.Zoo.rejected;
              deadline_met = c.Zoo.deadline_met;
              p50_us = c.Zoo.p50_us;
              p95_us = c.Zoo.p95_us;
              p99_us = c.Zoo.p99_us;
              goodput_rps = float_of_int numerator /. Float.max wall_s 1e-9;
            })
          (Zoo.class_stats zoo)
      in
      Printf.printf
        "zoo %-9s %5d requests, arrival %8.1f rps, wall %6.3fs\n" label
        requests arrival wall_s;
      List.iter
        (fun r ->
          Printf.printf
            "  %-12s sub %5d done %5d shed %4d rej %4d met %5d p99 %8.0fus \
             goodput %8.1f/s\n"
            r.cls r.submitted r.completed r.shed r.rejected r.deadline_met
            r.p99_us r.goodput_rps)
        classes;
      { load; arrival_rps = arrival; requests; wall_s; failed = !failed;
        classes })

(* --- Plan-store leg ------------------------------------------------------- *)

type store_row = {
  cold_ms : float;
  warm_ms : float;
  cold_compiles : int;
  warm_loaded : int;
  warm_compiles : int;
  saved : int;
}

let store_leg ~workers ~deadline_us =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "astitch-zoo-bench-%d" (Unix.getpid ()))
  in
  let mk () =
    Zoo.create
      ~config:
        (zoo_config ~workers ~deadline_us ~plan_dir:(Some dir)
           ~verify_plans:false)
      (registrations ~deadline_us)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let cold_zoo = mk () in
  let cold, cold_ms = time (fun () -> Zoo.prewarm cold_zoo) in
  Zoo.shutdown cold_zoo;
  let warm_zoo = mk () in
  let warm, warm_ms = time (fun () -> Zoo.prewarm warm_zoo) in
  Zoo.shutdown warm_zoo;
  (* best-effort cleanup of the throwaway store *)
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  if warm.Zoo.compiled <> 0 then
    failwith
      (Printf.sprintf
         "zoo bench: warm restart compiled %d plans (store promises 0)"
         warm.Zoo.compiled);
  Printf.printf
    "zoo store     cold prewarm %.0fms (%d compiles, %d saved) -> warm \
     prewarm %.0fms (%d loaded, 0 compiles)\n"
    cold_ms cold.Zoo.compiled cold.Zoo.saved warm_ms warm.Zoo.loaded;
  {
    cold_ms;
    warm_ms;
    cold_compiles = cold.Zoo.compiled;
    warm_loaded = warm.Zoo.loaded;
    warm_compiles = warm.Zoo.compiled;
    saved = cold.Zoo.saved;
  }

(* --- Reporting ------------------------------------------------------------- *)

let write_json ~path ~quick ~workers ~capacity_rps ~deadline_us ~store legs =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"astitch-zoo-bench-v1\",\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"workers\": %d,\n" workers;
  p "  \"capacity_rps\": %.1f,\n" capacity_rps;
  p "  \"deadline_us\": %.1f,\n" deadline_us;
  p "  \"store\": {\n";
  p "    \"cold_ms\": %.1f,\n" store.cold_ms;
  p "    \"warm_ms\": %.1f,\n" store.warm_ms;
  p "    \"cold_compiles\": %d,\n" store.cold_compiles;
  p "    \"warm_loaded\": %d,\n" store.warm_loaded;
  p "    \"warm_compiles\": %d,\n" store.warm_compiles;
  p "    \"saved\": %d\n" store.saved;
  p "  },\n";
  p "  \"legs\": [\n";
  List.iteri
    (fun i leg ->
      p "    {\n";
      p "      \"load\": %.1f,\n" leg.load;
      p "      \"arrival_rps\": %.1f,\n" leg.arrival_rps;
      p "      \"requests\": %d,\n" leg.requests;
      p "      \"wall_s\": %.3f,\n" leg.wall_s;
      p "      \"failed\": %d,\n" leg.failed;
      p "      \"classes\": [\n";
      List.iteri
        (fun j r ->
          p "        {\n";
          p "          \"cls\": \"%s\",\n" r.cls;
          p "          \"submitted\": %d,\n" r.submitted;
          p "          \"completed\": %d,\n" r.completed;
          p "          \"shed\": %d,\n" r.shed;
          p "          \"rejected\": %d,\n" r.rejected;
          p "          \"deadline_met\": %d,\n" r.deadline_met;
          p "          \"p50_us\": %.1f,\n" r.p50_us;
          p "          \"p95_us\": %.1f,\n" r.p95_us;
          p "          \"p99_us\": %.1f,\n" r.p99_us;
          p "          \"goodput_rps\": %.1f\n" r.goodput_rps;
          p "        }%s\n" (if j = List.length leg.classes - 1 then "" else ",")
          )
        leg.classes;
      p "      ]\n";
      p "    }%s\n" (if i = List.length legs - 1 then "" else ","))
    legs;
  p "  ]\n";
  p "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* --- Baseline parsing / regression check ----------------------------------- *)

(* Line-based reader (shared convention with the other BENCH files):
   tracks the current "load" and "cls" context and keys each class's
   goodput as (load, cls). *)
let read_baseline path =
  let ic = open_in path in
  let rows = ref [] in
  let load = ref None and cls = ref None in
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
       (match field line "load" with
       | Some v -> load := Some (float_of_string v)
       | None -> ());
       (match field line "cls" with
       | Some v -> cls := Some (String.sub v 1 (String.length v - 2))
       | None -> ());
       match (field line "goodput_rps", !load, !cls) with
       | Some v, Some l, Some c ->
           rows := ((l, c), float_of_string v) :: !rows;
           cls := None
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

let check ~label base ~deadline_us legs =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun leg ->
      if leg.failed > 0 then
        fail "%.0fx: %d requests failed" leg.load leg.failed;
      let row c = List.find_opt (fun r -> r.cls = c) leg.classes in
      (* the multi-tenant contract at sustained 2x overload *)
      if leg.load >= 2. then begin
        (match row "latency" with
        | Some r when r.completed > 0 ->
            if r.p99_us > deadline_us then
              fail
                "2x overload: latency-class p99 %.0fus blows the %.0fus \
                 deadline"
                r.p99_us deadline_us
        | _ -> fail "2x overload: latency class completed nothing");
        match row "best-effort" with
        | Some r when r.completed > 0 -> ()
        | _ -> fail "2x overload: best-effort starved (goodput 0)"
      end;
      (* every class makes progress at every load *)
      List.iter
        (fun r ->
          if r.completed = 0 then
            fail "%.0fx: class %s completed nothing" leg.load r.cls)
        leg.classes;
      (* against the committed baseline: total goodput per leg must not
         collapse below half *)
      let total =
        List.fold_left (fun acc r -> acc +. r.goodput_rps) 0. leg.classes
      in
      let base_total =
        List.fold_left
          (fun acc ((l, _), g) -> if l = leg.load then acc +. g else acc)
          0. base
      in
      if base_total > 0. && total < base_total /. 2. then
        fail
          "%.0fx: total goodput %.1f/s regressed below half the baseline \
           %.1f/s"
          leg.load total base_total)
    legs;
  match !failures with
  | [] ->
      Printf.printf "zoo bench check OK (%d legs vs %s)\n" (List.length legs)
        label
  | fs ->
      List.iter prerr_endline fs;
      exit 1

let run ?(quick = false) ?(out = "BENCH_zoo.json") ?baseline () =
  let base = Option.map (fun b -> (b, read_baseline b)) baseline in
  let workers =
    let cores = Astitch_core.Parallel.recommended_domains () in
    Stdlib.max 1 (Stdlib.min 4 cores)
  in
  let cap_requests = if quick then 150 else 600 in
  (* Capacity probe: full blast with an effectively-infinite deadline
     (expiry shedding off), so the number is pure service capacity. *)
  let cap =
    run_leg ~label:"capacity" ~load:0. ~workers ~arrival:0.
      ~requests:cap_requests ~deadline_us:1e9
  in
  let capacity_rps =
    let completed =
      List.fold_left (fun acc r -> acc + r.completed) 0 cap.classes
    in
    float_of_int completed /. Float.max cap.wall_s 1e-9
  in
  (* Calibrate the latency deadline to this machine: the worst admitted
     request waits out about a full queue at capacity; give the latency
     class twice that (it jumps the queue, so its real p99 sits far
     below). *)
  let deadline_us =
    Float.max 20_000. (2e6 *. 64. /. Float.max capacity_rps 1e-9)
  in
  Printf.printf "zoo capacity %.1f rps -> latency deadline %.0fus\n"
    capacity_rps deadline_us;
  (* Size each leg to sustain its load long enough for the scheduler's
     steady state (floor picks, displacement) to dominate the numbers,
     not the first batching window. *)
  let requests =
    let duration_s = if quick then 0.4 else 1.5 in
    Stdlib.max 200 (Stdlib.min 8000 (int_of_float (capacity_rps *. duration_s)))
  in
  let legs =
    List.map
      (fun load ->
        run_leg
          ~label:(Printf.sprintf "%.0fx" load)
          ~load ~workers ~arrival:(load *. capacity_rps) ~requests
          ~deadline_us)
      [ 1.0; 2.0 ]
  in
  let store = store_leg ~workers ~deadline_us in
  write_json ~path:out ~quick ~workers ~capacity_rps ~deadline_us ~store legs;
  Option.iter (fun (label, b) -> check ~label b ~deadline_us legs) base
