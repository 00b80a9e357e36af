(* The open-loop client shared by the serve workloads: one thread submits
   pre-generated requests at their due times whatever the server is
   doing, and polls outcomes while it waits.  Latency runs from each
   request's due time, so a stall charges every request that was due
   during it; the generator's own lateness is reported. *)

module Request = Astitch_serve.Request
module Tensor = Astitch_tensor.Tensor

type arrival = {
  due_s : float;  (** offset from the segment start *)
  model : string;
  payload : int;  (** index into the model's payload pool *)
}

(* Poisson arrivals at [rps] for [seconds], models drawn by [pick]. *)
let schedule st ~rps ~seconds ~pick =
  let rec go acc t =
    let t = t -. (Float.log (1. -. Random.State.float st 1.) /. rps) in
    if t >= seconds then Array.of_list (List.rev acc)
    else
      let model = pick st in
      let payload = Random.State.int st Config.payloads_per_model in
      go ({ due_s = t; model; payload } :: acc) t
  in
  go [] 0.

type ops = {
  submit :
    model:string ->
    params:(string * Tensor.t) list ->
    (int, Request.overload) result;
  poll : int -> Request.outcome option;
}

type result = {
  arrivals : arrival array;
  latency_ms : float array;
      (** from due; [infinity] for a refused, shed, failed or lost request *)
  completed : bool array;
  refused : int;
  shed : int;
  failed : int;
  lost : int;  (** no outcome within the drain timeout *)
  failures : string list;
  submit_us : float array;  (** client-side cost of each submit call *)
  max_lag_ms : float;
  wall_s : float;  (** segment start to last outcome *)
  kept : (int * Tensor.t list) list;  (** outputs of sampled requests *)
}

let drain_timeout_s = 30.

let run ops ~payloads ~keep arrivals =
  let n = Array.length arrivals in
  let latency_ms = Array.make n infinity in
  let completed = Array.make n false in
  let submit_us = Array.make n 0. in
  let refused = ref 0 and shed = ref 0 and failed = ref 0 in
  let failures = ref [] and kept = ref [] and max_lag = ref 0. in
  let outstanding = ref [] in
  let settle i late_ms = function
    | Request.Done { outputs; latency_us; _ } ->
        latency_ms.(i) <- late_ms +. (latency_us /. 1e3);
        completed.(i) <- true;
        if keep i then kept := (i, outputs) :: !kept
    | Request.Overloaded _ -> incr shed
    | Request.Failed why ->
        incr failed;
        failures := why :: !failures
  in
  let poll_all () =
    outstanding :=
      List.filter
        (fun (i, ticket, late_ms) ->
          match ops.poll ticket with
          | Some o ->
              settle i late_ms o;
              false
          | None -> true)
        !outstanding
  in
  let t0 = Stats.now () +. 0.001 in
  Array.iteri
    (fun i a ->
      let due = t0 +. a.due_s in
      if due -. Stats.now () > 3e-4 then poll_all ();
      let wait = due -. Stats.now () in
      if wait > 0. then Unix.sleepf wait;
      let t_sub = Stats.now () in
      let late_ms = (t_sub -. due) *. 1e3 in
      if late_ms > !max_lag then max_lag := late_ms;
      let r =
        ops.submit ~model:a.model ~params:(payloads a.model).(a.payload)
      in
      submit_us.(i) <- (Stats.now () -. t_sub) *. 1e6;
      match r with
      | Ok ticket -> outstanding := (i, ticket, late_ms) :: !outstanding
      | Error _ -> incr refused)
    arrivals;
  let deadline = Stats.now () +. drain_timeout_s in
  while !outstanding <> [] && Stats.now () < deadline do
    poll_all ();
    if !outstanding <> [] then Unix.sleepf 1e-4
  done;
  let t_end = Stats.now () in
  {
    arrivals;
    latency_ms;
    completed;
    refused = !refused;
    shed = !shed;
    failed = !failed;
    lost = List.length !outstanding;
    failures = !failures;
    submit_us;
    max_lag_ms = !max_lag;
    wall_s = t_end -. t0;
    kept = !kept;
  }

(* Quantile of from-due latency over the requests [sel] picks, misses
   counting as infinitely late.  A quantile that lands on a miss reads as
   the segment's wall time: worse than any latency the segment could
   have observed, and finite. *)
let latency_quantile r ?(sel = fun _ -> true) q =
  let xs = ref [] in
  Array.iteri (fun i l -> if sel i then xs := l :: !xs) r.latency_ms;
  let v = Stats.quantile (Array.of_list !xs) q in
  if Float.is_finite v then v else r.wall_s *. 1e3

(* Quantile [q] of each consecutive slice of [Config.slice_requests]
   selected requests, in due order; a short tail joins the last slice.
   Misses read as the segment's wall time, as in [latency_quantile]. *)
let slice_quantiles r ?(sel = fun _ -> true) q =
  let picked = ref [] in
  Array.iteri (fun i l -> if sel i then picked := l :: !picked) r.latency_ms;
  let picked = Array.of_list (List.rev !picked) in
  let size = Config.slice_requests in
  let k = Stdlib.max 1 (Array.length picked / size) in
  Array.init k (fun j ->
      let hi = if j = k - 1 then Array.length picked else (j + 1) * size in
      let v = Stats.quantile (Array.sub picked (j * size) (hi - (j * size))) q in
      if Float.is_finite v then v else r.wall_s *. 1e3)

(* The median over slices of each slice's quantile: a host stall that
   spoils one slice does not move it; a backlog that spoils most slices
   does. *)
let windowed_quantile r ?sel q = Stats.median (slice_quantiles r ?sel q)

(* Completions within [limit_ms] of their due time, per second. *)
let goodput r ?(sel = fun _ -> true) ~limit_ms () =
  let ok = ref 0 in
  Array.iteri
    (fun i l -> if sel i && r.completed.(i) && l <= limit_ms then incr ok)
    r.latency_ms;
  float_of_int !ok /. r.wall_s

(* Whether request [i] is in the verified sample: a seeded hash picks
   about [count] of [n] requests. *)
let sampler ~seed ~n ~count =
  let p = float_of_int count /. float_of_int (Stdlib.max 1 n) in
  fun i ->
    let h = Hashtbl.hash (seed, i, 0x5a3) in
    float_of_int (h land 0xFFFFFF) /. float_of_int 0x1000000 < p
