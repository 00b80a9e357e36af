(* Per-layer metrics for the traced run.  Layers are named by module.
   Every workload reports the whole catalogue: a layer a workload does
   not exercise reads 0 there, which is itself the prediction (compile
   phases should not move on serve traffic, scheduler policy counters
   should not move on compile-zoo). *)

module Trace = Astitch_obs.Trace
module Metrics = Astitch_obs.Metrics
module Zoo_w = Astitch_workloads.Zoo

(* The 8 full-size paper graphs, "<model>-infer" / "<model>-train". *)
let paper_graphs =
  List.concat_map
    (fun (e : Zoo_w.entry) ->
      (e.name ^ "-infer", e.inference)
      :: (match e.training with
         | Some t -> [ (e.name ^ "-train", t) ]
         | None -> []))
    Zoo_w.all

let served_models = List.map (fun (e : Zoo_w.entry) -> e.name) Zoo_w.all

(* The existing compile-phase spans (lib/astitch), clustering through
   kernel-schedule. *)
let compile_phases =
  [
    "clustering"; "remote-stitching"; "dominant-grouping";
    "schedule-propagation"; "locality-placement"; "mem-planning";
    "launch-config"; "codegen"; "kernel-schedule";
  ]

let serve_phases = [ "queue"; "batch_wait"; "pack"; "exec"; "unpack" ]
let classes = [ ("latency", "latency"); ("throughput", "throughput"); ("best-effort", "best_effort") ]

let catalogue =
  [ ("client.latency_p99_ms", "ms"); ("ir.build_ms", "ms"); ("ir.fingerprint_ms", "ms") ]
  @ List.map (fun (g, _) -> ("astitch.compile_ms." ^ g, "ms")) paper_graphs
  @ List.map (fun p -> ("astitch.phase." ^ p ^ "_ms", "ms")) compile_phases
  @ [
      ("plan.check_ms", "ms"); ("plan.encode_ms", "ms");
      ("plan.decode_ms", "ms"); ("plan.bytes", "bytes");
      ("simt.kernels", "count"); ("simt.dram_mb", "MB");
      ("runtime.plan_store.load_ms", "ms");
      ("runtime.create_context_ms", "ms");
      ("runtime.plan_cache.hits", "count");
      ("runtime.plan_cache.misses", "count");
    ]
  @ List.concat_map
      (fun m ->
        [
          ("runtime.run_context_us." ^ m ^ ".b1", "us");
          ("runtime.run_context_us." ^ m ^ ".b8", "us");
        ])
      served_models
  @ List.concat_map
      (fun p -> [ ("serve." ^ p ^ "_us.p50", "us"); ("serve." ^ p ^ "_us.p99", "us") ])
      serve_phases
  @ [
      ("serve.submit_us.p50", "us"); ("serve.batch_size.mean", "requests");
      ("serve.plan_compiles", "count"); ("serve.padded_rows", "count");
      ("serve.batching.analyze_ms", "ms");
      ("serve.shed", "count"); ("serve.rejected", "count");
      ("serve.displaced", "count"); ("serve.floor_picks", "count");
      ("serve.retried", "count");
    ]
  @ List.concat_map
      (fun (_, c) ->
        [
          ("serve.class." ^ c ^ ".goodput_rps", "1/s");
          ("serve.class." ^ c ^ ".p99_ms", "ms");
        ])
      classes
  @ [
      ("serve.generator_lag_ms.max", "ms");
      ("gc.minor_words_per_op", "words"); ("gc.promoted_words_per_op", "words");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("trace.overhead_pct", "%");
    ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 128

let set (t : t) name v =
  if not (List.mem_assoc name catalogue) then
    invalid_arg ("perfbench: unknown layer metric " ^ name);
  Hashtbl.replace t name v

let add (t : t) name v =
  set t name (v +. Option.value ~default:0. (Hashtbl.find_opt t name))

let emit (t : t) report =
  List.iter
    (fun (name, unit) ->
      Report.add report name unit
        (Option.value ~default:0. (Hashtbl.find_opt t name)))
    catalogue

(* --- Trace spans ---------------------------------------------------------- *)

(* Self time per compile-phase span name, in ms: a span's duration minus
   what its direct children cover. *)
let compile_self_ms records =
  let spans =
    List.filter_map (function Trace.Span s -> Some s | _ -> None) records
  in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (s.end_ns - s.start_ns
          + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      if s.phase = "compile" then
        let own =
          s.end_ns - s.start_ns
          - Option.value ~default:0 (Hashtbl.find_opt child s.id)
        in
        Hashtbl.replace self s.name
          (float_of_int own /. 1e6
          +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    spans;
  self

let add_compile_phases t records =
  let self = compile_self_ms records in
  List.iter
    (fun p ->
      add t ("astitch.phase." ^ p ^ "_ms")
        (Option.value ~default:0. (Hashtbl.find_opt self p)))
    compile_phases

(* A large per-domain ring: a traced compile pass over the training
   graphs emits tens of thousands of spans. *)
let trace_capacity = 1 lsl 18

(* --- GC ---------------------------------------------------------------- *)

type gc = { minor : float; promoted : float; minors : int; majors : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    minors = s.Gc.minor_collections;
    majors = s.Gc.major_collections;
  }

let set_gc t ~ops (a : gc) (b : gc) =
  let per v = v /. float_of_int (Stdlib.max 1 ops) in
  set t "gc.minor_words_per_op" (per (b.minor -. a.minor));
  set t "gc.promoted_words_per_op" (per (b.promoted -. a.promoted));
  set t "gc.minor_collections" (float_of_int (b.minors - a.minors));
  set t "gc.major_collections" (float_of_int (b.majors - a.majors))


(* --- Metrics registry ---------------------------------------------------- *)

let counter name = Metrics.(value (counter default name))

(* Plan-cache traffic since the last registry reset. *)
let set_cache_counters t =
  set t "runtime.plan_cache.hits" (float_of_int (counter "plan_cache.hit"));
  set t "runtime.plan_cache.misses" (float_of_int (counter "plan_cache.miss"))

(* The five serve.<phase>_us histograms, via the serving runtime's own
   latency decomposition. *)
let set_serve_phases t =
  List.iter
    (fun (p : Astitch_serve.Serve.phase_latency) ->
      if List.mem p.phase serve_phases then begin
        set t ("serve." ^ p.phase ^ "_us.p50") p.p50_us;
        set t ("serve." ^ p.phase ^ "_us.p99") p.p99_us
      end)
    (Astitch_serve.Serve.latency_breakdown ());
  set t "serve.batch_size.mean"
    Metrics.(hist_mean (histogram default "serve.batch_size"))
