(* Result assembly: named metrics with units, the host block, and the
   two JSON lines a run prints last - a full report, then the one-line
   summary ({correct, attempted, failed, metrics}) that ends stdout. *)

type metric = { name : string; unit : string; value : float }

type t = {
  mutable metrics : metric list;  (** reverse emission order *)
  mutable unbounded : metric list;
      (** figures printed in the report line only: too host-noisy to
          gate on *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failure reasons *)
}

let create () =
  { metrics = []; unbounded = []; attempted = 0; failed = 0; errors = [] }

let add t name unit value =
  if List.exists (fun m -> m.name = name) t.metrics then
    invalid_arg ("perfbench: metric emitted twice: " ^ name);
  t.metrics <- { name; unit; value } :: t.metrics

(* setup_s (the median set-up) and peak_heap_mb, read when the
   workload's traffic is done. *)
let add_setup_and_heap t setup =
  add t "setup_s" "s" (Stats.median setup);
  add t "peak_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.)

(* A figure for the report line but not the summary's metrics. *)
let note t name unit value = t.unbounded <- { name; unit; value } :: t.unbounded

let attempt t n = t.attempted <- t.attempted + n

let fail t reason =
  t.failed <- t.failed + 1;
  if List.length t.errors < 8 then t.errors <- reason :: t.errors

let metrics t = List.rev t.metrics

(* --- JSON ---------------------------------------------------------------- *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float has; JSON has no NaN or infinity, so a
   non-finite metric is a benchmark bug and aborts the run. *)
let num name v =
  if not (Float.is_finite v) then
    failwith (Printf.sprintf "perfbench: metric %s is not finite" name);
  Printf.sprintf "%.17g" v

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

let metrics_json ms =
  obj
    (List.map
       (fun m ->
         (m.name, obj [ ("value", num m.name m.value); ("unit", str m.unit) ]))
       ms)

type host = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  git_rev : string;
}

let host_json h =
  obj
    [
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", str Sys.ocaml_version);
      ("os", str Sys.os_type);
      ("git_rev", str h.git_rev);
      ("workers", string_of_int Config.workers);
      ("workload", str h.workload);
      ("seed", string_of_int h.seed);
      ("seconds", string_of_int h.seconds);
      ("trace", string_of_bool h.trace);
    ]

let correct t = t.failed = 0 && t.attempted > 0

(* Print the report line and the summary line; returns [correct]. *)
let print t host =
  let error_rate =
    float_of_int t.failed /. float_of_int (Stdlib.max 1 t.attempted)
  in
  print_endline
    (obj
       [
         ("host", host_json host);
         ("failures", "[" ^ String.concat ", " (List.rev_map str t.errors) ^ "]");
         ("error_rate", num "error_rate" error_rate);
         ("metrics", metrics_json (metrics t));
         ("unbounded", metrics_json (List.rev t.unbounded));
       ]);
  print_endline
    (obj
       [
         ("correct", string_of_bool (correct t));
         ("attempted", string_of_int t.attempted);
         ("failed", string_of_int t.failed);
         ("metrics", metrics_json (metrics t));
       ]);
  correct t
