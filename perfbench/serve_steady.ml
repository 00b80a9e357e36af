(* serve-steady: the 5 zoo models behind Serve on the legacy FIFO path
   (no SLO classes), uniform model mix, open-loop Poisson arrivals
   stepping through a fixed rate ladder.  The per-request hot path does
   all the work: admission, batcher, pack, fused run_context on rebound
   symbolic contexts, unpack.  Set-up is a cold start: Serve.create +
   warm. *)

module Serve = Astitch_serve.Serve

let names = Array.of_list Layers.served_models
let pick st = names.(Random.State.int st (Array.length names))

(* A rung is under SLO when its windowed p99 is within the limit, no
   request failed, and the backlog did not grow: in the rung's last
   slice the median request still met the limit. *)
let under_slo rps (r : Open_loop.result) =
  let p99 = Open_loop.windowed_quantile r 0.99 in
  let p50s = Open_loop.slice_quantiles r 0.5 in
  let pass =
    p99 <= Config.latency_limit_ms
    && r.failed = 0 && r.lost = 0
    && p50s.(Array.length p50s - 1) <= Config.latency_limit_ms
  in
  Printf.eprintf "rung %6.0f rps: windowed p99 %7.2f ms, refused %d -> %s\n%!"
    rps p99 r.refused (if pass then "pass" else "fail");
  pass

let run ~seed ~seconds ~trace report =
  let layers = Layers.create () in
  let compiles = Served.compiles () in
  Served.sample_compiles compiles;
  if trace then begin
    Served.probe_cold layers;
    Served.probe_exec layers
  end;
  let config = Served.serve_config ~queue_depth:Config.steady_queue_depth in
  let models = List.map Served.model Layers.served_models in
  let setup, server =
    Served.repeated_setup layers ~stop:Serve.shutdown ~start:(fun () ->
        let s = Serve.create ~config models in
        Serve.warm s;
        s)
  in
  Fun.protect ~finally:(fun () -> Serve.shutdown server) @@ fun () ->
  let ops =
    {
      Open_loop.submit =
        (fun ~model ~params -> Serve.submit_async server ~model ~params);
      poll = Serve.poll server;
    }
  in
  let t = Served.traffic report server ~ops ~pick ~seed in
  let nominal = Config.nominal_rps in
  let warmup = Served.warmup t ~rps:nominal in
  let seconds = float_of_int seconds in
  let p50 r = Open_loop.latency_quantile r 0.5 in
  let p99 r = Open_loop.windowed_quantile r 0.99 in
  if not trace then begin
    let nominal_s = seconds *. Config.nominal_share in
    let others = List.filter (fun r -> r <> nominal) Config.ladder_rps in
    let rung_s = (seconds -. nominal_s) /. float_of_int (List.length others) in
    let at_nominal =
      Served.draw t ~sample:Config.sampled_outputs ~rps:nominal ~seconds:nominal_s ()
    in
    let rungs =
      List.map
        (fun rps ->
          (rps, if rps = nominal then None
                else Some (Served.draw t ~sample:2 ~rps ~seconds:rung_s ())))
        Config.ladder_rps
    in
    ignore (Served.play t warmup);
    let at_nominal = Served.play t at_nominal in
    (* ascending; stop after two consecutive failing rungs *)
    let rec ladder fails best = function
      | [] -> best
      | _ when fails >= 2 -> best
      | (rps, segment) :: rest ->
          let r =
            match segment with Some s -> Served.play t s | None -> at_nominal
          in
          if under_slo rps r then ladder 0 rps rest
          else ladder (fails + 1) best rest
    in
    let max_rps = ladder 0 0. rungs in
    Report.add report "latency_p50_ms" "ms" (p50 at_nominal);
    Report.note report "latency_p99_ms" "ms" (p99 at_nominal);
    Report.add report "goodput_rps" "1/s"
      (Open_loop.goodput at_nominal ~limit_ms:Config.latency_limit_ms ());
    Report.note report "max_rps_under_slo" "1/s" max_rps
  end
  else begin
    let half = seconds /. 2. in
    let plain = Served.draw t ~rps:nominal ~seconds:half () in
    let traced =
      Served.draw t ~sample:Config.sampled_outputs ~rps:nominal ~seconds:half ()
    in
    ignore (Served.traced_halves t layers ~warmup ~plain ~traced ~p50 ~p99)
  end;
  Served.finish t layers ~trace ~setup compiles
