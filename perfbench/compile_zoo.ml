(* compile-zoo: graph -> plan on the 8 full-size paper graphs, a closed
   loop on one thread.  Each pass visits the graphs in a seeded random
   order; each visit builds the graph, fingerprints it, compiles it
   with the full AStitch backend (no cache), checks every plan
   invariant, encodes, decodes and compares the round trip.  The IR,
   the compile passes, the codec and the cost model do all the work;
   the serving layers do none.  A host-speed probe runs after every
   visit, and the compile figures are reported at the reference speed
   (speed.ml). *)

open Astitch_runtime
open Astitch_plan
module Trace = Astitch_obs.Trace

let graphs = Array.of_list Layers.paper_graphs
let ng = Array.length graphs

(* What the first visit of each graph produced; every later visit must
   reproduce it exactly (the compiler is deterministic). *)
type reference = {
  fingerprint : string;
  digest : string;  (** of the encoded plan *)
  bytes : int;
  modeled_ms : float;
  kernels : int;
  dram_mb : float;
}

type segment = {
  op_ms : float list array;  (** per graph: whole graph -> plan time *)
  compile_ms : float list array;  (** per graph: Session.compile alone *)
  pass_stage_ms : (string * float) list list;
      (** per pass: layer name -> ms summed over the pass's 8 graphs *)
  ops : int;
  wall_s : float;  (** without the probes *)
  speed : Speed.t;
}

let stages =
  [ "ir.build_ms"; "ir.fingerprint_ms"; "plan.check_ms"; "plan.encode_ms";
    "plan.decode_ms" ]

let visit report refs i =
  let name, build = graphs.(i) in
  let t0 = Stats.now () in
  let g = build () in
  let t1 = Stats.now () in
  let fingerprint = Astitch_ir.Fingerprint.of_graph g in
  let t2 = Stats.now () in
  let r = Session.compile Served.astitch Config.arch g in
  let t3 = Stats.now () in
  let violations = Kernel_plan.check_all r.plan in
  let t4 = Stats.now () in
  let bytes = Plan_codec.encode r.plan in
  let t5 = Stats.now () in
  let decoded = Plan_codec.decode bytes in
  let t6 = Stats.now () in
  let round_trip =
    match decoded with Ok p -> Plan_codec.equal r.plan p | Error _ -> false
  in
  let t7 = Stats.now () in
  Report.attempt report 1;
  let fail why = Report.fail report (name ^ ": " ^ why) in
  if violations <> [] then
    fail (Printf.sprintf "%d plan invariant violations" (List.length violations))
  else if not round_trip then fail "codec round trip is not byte-equal"
  else begin
    let mine =
      {
        fingerprint;
        digest = Digest.string bytes;
        bytes = String.length bytes;
        modeled_ms = r.profile.Profile.total_time_us /. 1e3;
        kernels = List.length r.plan.kernels;
        dram_mb = Served.dram_mb r;
      }
    in
    match refs.(i) with
    | None -> refs.(i) <- Some mine
    | Some first when first <> mine -> fail "plan differs from the first compile"
    | Some _ -> ()
  end;
  let ms a b = (b -. a) *. 1e3 in
  ( ms t0 t7,
    ms t2 t3,
    [
      ("ir.build_ms", ms t0 t1); ("ir.fingerprint_ms", ms t1 t2);
      ("plan.check_ms", ms t3 t4); ("plan.encode_ms", ms t4 t5);
      ("plan.decode_ms", ms t5 t6);
    ] )

(* Whole passes until [seconds] have elapsed (at least one).  With
   [traced], a trace sink records each pass and the compile-phase self
   times join that pass's stage sums. *)
let segment report refs st ~seconds ~traced =
  let op_ms = Array.make ng [] and compile_ms = Array.make ng [] in
  let passes = ref [] and ops = ref 0 in
  let speed = Speed.create () in
  let t0 = Stats.now () in
  while !passes = [] || Stats.now () -. t0 < seconds do
    let order = Array.init ng Fun.id in
    for i = ng - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- x
    done;
    if traced then Trace.install ~capacity:Layers.trace_capacity ();
    let sums = Layers.create () in
    Array.iter
      (fun i ->
        let total, compile, parts = visit report refs i in
        op_ms.(i) <- total :: op_ms.(i);
        compile_ms.(i) <- compile :: compile_ms.(i);
        List.iter (fun (k, v) -> Layers.add sums k v) parts;
        incr ops;
        Speed.probe speed)
      order;
    if traced then Layers.add_compile_phases sums (Trace.uninstall ());
    passes := (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums []) :: !passes
  done;
  { op_ms; compile_ms; pass_stage_ms = !passes; ops = !ops;
    wall_s = Stats.now () -. t0 -. speed.spent_s; speed }

let median_of l = Stats.median (Array.of_list l)

let raw_geomean s = Stats.geomean (Array.map median_of s.op_ms)
let compile_geomean s = raw_geomean s *. Speed.scale s.speed

let pooled_p99 s =
  Stats.quantile (Array.of_list (List.concat (Array.to_list s.op_ms))) 0.99

let run ~seed ~seconds ~trace report =
  let seconds = float_of_int seconds in
  let st = Random.State.make [| seed; 0xc0de |] in
  (* Set-up: the XLA baseline plans, compiled once outside the clock. *)
  let xla_ms = Array.make ng 0. in
  let setup =
    Array.init Config.compile_setup_repeats (fun _ ->
        snd
          (Stats.time (fun () ->
               Array.iteri
                 (fun i (_, build) ->
                   let r = Session.compile Served.xla Config.arch (build ()) in
                   xla_ms.(i) <- r.profile.Profile.total_time_us /. 1e3)
                 graphs)))
  in
  let refs = Array.make ng None in
  let layers = Layers.create () in
  if not trace then begin
    let s = segment report refs st ~seconds ~traced:false in
    let rate = float_of_int (s.ops - report.Report.failed) /. s.wall_s in
    let scale = Speed.scale s.speed in
    let modeled =
      Array.map (function Some r -> r.modeled_ms | None -> nan) refs
    in
    Report.add report "compile_ms_geomean" "ms" (compile_geomean s);
    Report.add report "modeled_gpu_ms" "model_ms" (Array.fold_left ( +. ) 0. modeled);
    Report.add report "modeled_speedup_vs_xla" "x"
      (Stats.geomean (Array.mapi (fun i m -> xla_ms.(i) /. m) modeled));
    (* the pooled p50 would land between two graphs' clusters and jump
       with their overlap; the median of the graphs' medians does not,
       once the two middle graphs (BERT-infer and DIEN-infer, nearly
       tied) are averaged rather than picked by rank *)
    Report.add report "latency_p50_ms" "ms"
      (Stats.midpoint_median (Array.map median_of s.op_ms) *. scale);
    Report.note report "latency_p99_ms" "ms" (pooled_p99 s);
    Report.add report "goodput_rps" "1/s" (rate /. scale);
    Report.note report "compile_ms_geomean_measured" "ms" (raw_geomean s);
    Report.note report "goodput_rps_measured" "1/s" rate;
    Report.note report "speed_probe_ms" "ms" (Speed.probe_ms s.speed);
    (* a closed loop has no backlog: its sustained rate is its max rate *)
    Report.note report "max_rps_under_slo" "1/s" rate;
    Report.add_setup_and_heap report setup
  end
  else begin
    let half = seconds /. 2. in
    let g0 = Layers.gc_now () in
    let plain = segment report refs st ~seconds:half ~traced:false in
    let g1 = Layers.gc_now () in
    let traced = segment report refs st ~seconds:half ~traced:true in
    Layers.set_gc layers ~ops:plain.ops g0 g1;
    Layers.set layers "trace.overhead_pct"
      ((compile_geomean traced /. compile_geomean plain -. 1.) *. 100.);
    Layers.set layers "client.latency_p99_ms" (pooled_p99 traced);
    Array.iteri
      (fun i (name, _) ->
        Layers.set layers ("astitch.compile_ms." ^ name)
          (median_of traced.compile_ms.(i)))
      graphs;
    let per_pass name =
      median_of
        (List.map
           (fun p -> Option.value ~default:0. (List.assoc_opt name p))
           traced.pass_stage_ms)
    in
    List.iter
      (fun k -> Layers.set layers k (per_pass k))
      (stages
      @ List.map (fun p -> "astitch.phase." ^ p ^ "_ms") Layers.compile_phases);
    let sum f =
      Array.fold_left (fun acc r -> match r with Some r -> acc +. f r | None -> acc) 0. refs
    in
    Layers.set layers "plan.bytes" (sum (fun r -> float_of_int r.bytes));
    Layers.set layers "simt.kernels" (sum (fun r -> float_of_int r.kernels));
    Layers.set layers "simt.dram_mb" (sum (fun r -> r.dram_mb))
  end;
  layers
