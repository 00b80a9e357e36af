(* Host speed.  The benchmark gets a few cores of a shared host, and the
   speed those cores give drifts by up to a quarter from one few-second
   window to the next: other tenants contend for the cores themselves,
   so steal time stays flat and process CPU time drifts with wall time.
   Every compile time drifts with it.  Compile figures are therefore
   reported at a reference host speed:

     figure = measured * Config.speed_reference_ms / probe

   where [probe] is the median time of a fixed probe run interleaved
   with the compile samples.  The probe uses the standard library only
   (build a map of seeded random ints, fold it into a list, sort it),
   which allocates and chases pointers the way the compiler does.  A
   change to the program moves the figure; a change of host speed moves
   the measured time and the probe together.  On the 2-vCPU host the
   benchmark was tuned on, compile time over probe time moved by 6%
   over 3-s windows while compile time alone moved by 22%. *)

module M = Map.Make (Int)

let probe_once () =
  let st = Random.State.make [| 0x5bee |] in
  let t0 = Stats.now () in
  let m = ref M.empty in
  for _ = 1 to Config.speed_probe_keys do
    m := M.add (Random.State.int st 1_000_000) (Random.State.bits st) !m
  done;
  let l = M.fold (fun k v acc -> (k lxor v) :: acc) !m [] in
  ignore (Sys.opaque_identity (List.sort compare l));
  Stats.now () -. t0

type t = { mutable samples : float list; mutable spent_s : float }

let create () = { samples = []; spent_s = 0. }

let probe t =
  let dt = probe_once () in
  t.samples <- dt :: t.samples;
  t.spent_s <- t.spent_s +. dt

(* Median probe time; at least one probe must have run. *)
let probe_ms t = Stats.median (Array.of_list t.samples) *. 1e3

(* Multiplies a measured time to give it at the reference speed. *)
let scale t = Config.speed_reference_ms /. probe_ms t
