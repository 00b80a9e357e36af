(* The frozen benchmark configuration.  Nothing here is derived from the
   host: a number measured on a 1-core laptop and one measured on a
   4-core runner come from the same settings, and the host block of each
   result says which machine it was. *)

let arch = Astitch_simt.Arch.v100

(* Host-speed probe (speed.ml): map keys per probe, and the probe time
   that defines the reference speed compile figures are reported at.
   Both are frozen: on the 2-vCPU host the benchmark was tuned on, a
   probe took 1.5-2.1 ms and 1.8 ms was a mid reading.  Changing either
   changes every compile figure. *)
let speed_probe_keys = 4000
let speed_reference_ms = 1.8

(* --- compile-zoo --------------------------------------------------------- *)

(* How often a run repeats its set-up (the XLA reference compiles); the
   median is setup_s. *)
let compile_setup_repeats = 5

(* --- serving (both serve workloads) -------------------------------------- *)

(* One client thread plus one worker domain: fits a 2-core host.  The
   supervision monitor is a third, mostly idle domain. *)
let workers = 1
let max_batch = 8
let max_wait_us = 500.
let verify_every = 16

(* Distinct pre-generated request payloads per model, cycled by a seeded
   index; small enough to build before the clock in a few ms. *)
let payloads_per_model = 32

(* Served outputs compared bit-for-bit with a solo reference run. *)
let sampled_outputs = 48

(* How long the served models' compile times are sampled, round-robin
   across models: half before the traffic, half after. *)
let compile_sample_s = 6.0

(* Cold (serve-steady) or warm (zoo-overload) starts per run; the median
   is setup_s. *)
let setup_repeats = 21

(* Unmeasured requests at the workload's rate before any measured segment,
   so first-touch costs (CRNN's fixed-extent compiles, heap growth) are
   not charged to the first rung. *)
let warmup_requests = 400

(* --- serve-steady -------------------------------------------------------- *)

let steady_queue_depth = 256

(* p99 limit for a rung to count as "under SLO", from the due time.  Far
   above the unloaded p99 (a few ms), so a rung fails on a backlog near
   capacity rather than on one host stall. *)
let latency_limit_ms = 50.

(* Reported p99s are the median over consecutive slices of this many
   requests of each slice's p99 (ten samples beyond it), so one host
   stall does not decide a run. *)
let slice_requests = 1000

(* Latency and goodput are read at this rung (a quarter to a third of
   capacity on a 2-core host). *)
let nominal_rps = 2000.

(* Share of the run spent on the nominal rung; the rest is split evenly
   across the other rungs. *)
let nominal_share = 0.5

(* Open-loop arrival rates, ascending.  The ladder stops after two
   consecutive failing rungs. *)
let ladder_rps =
  [ 1000.; 2000.; 3000.; 4000.; 5000.; 6000.; 6500.; 7000.; 7500.; 8000.;
    8500.; 9000.; 9500.; 10000. ]

(* --- zoo-overload -------------------------------------------------------- *)

let zoo_queue_depth = 64

(* Latency-class deadline, relative to submission inside the server and
   checked from the due time here. *)
let zoo_deadline_ms = 20.

(* Sustained overload: 1.5-2x serve-steady's capacity on a 2-core host,
   below the rate (14k) at which the latency class itself starts missing
   its deadline.  Fixed, never probed. *)
let zoo_rps = 12000.

(* Popularity order, hottest first; weight 1/(i+1). *)
let zoo_models =
  [
    ("ASR", `Latency);
    ("DIEN", `Throughput);
    ("CRNN", `Throughput);
    ("Transformer", `Best_effort);
    ("BERT", `Best_effort);
  ]
