(* Multi-tenant model-zoo serving.

   The zoo is policy around the serving mechanism: Serve/Scheduler
   already know how to batch, dispatch and supervise; the zoo decides
   WHAT the scheduler optimizes (per-model SLO classes), remembers what
   was compiled (the persistent plan store), and keeps the per-class
   score (latency quantiles, goodput numerators) that multi-tenant
   evaluation is judged on.

   Prewarm ordering matters: each model's one max-batch plan is
   loaded-or-compiled and seeded into the server's session cache BEFORE
   Serve.warm builds executor contexts, so warm's checkouts hit the
   cache; and all of it happens before the first submit is legal, so no
   request ever races a cold compile.  On a warm store that leaves zero compile-phase spans in
   the whole process trace - the property the CI smoke test pins. *)

open Astitch_ir
open Astitch_runtime

let backend = Astitch_core.Astitch.full_backend

type config = {
  serve : Serve.config;
  plan_dir : string option;
  verify_plans : bool;
}

let default_config =
  { serve = Serve.default_config; plan_dir = None; verify_plans = false }

type prewarm = {
  loaded : int;
  compiled : int;
  verified : int;
  rejected : int;
  saved : int;
}

(* Per-class account: counters plus a latency reservoir.  Per-zoo (not
   the process-wide metrics registry) so tests and benches can run
   several zoos in one process without cross-talk; the reservoir is
   sorted once, at read time. *)
type account = {
  mutable a_submitted : int;
  mutable a_completed : int;
  mutable a_shed : int;
  mutable a_rejected : int;
  mutable a_failed : int;
  mutable a_deadline_met : int;
  mutable latencies : float list;
}

type pending = { p_cls : string; p_deadline_us : float option }

type t = {
  config : config;
  serve : Serve.t;
  registrations : (string * Slo.t) list;
  slos : (string, Slo.t) Hashtbl.t;
  store : Plan_store.t option;
  accounts : (string, account) Hashtbl.t;  (** by class name *)
  tickets : (int, pending) Hashtbl.t;
  amu : Mutex.t;  (** guards accounts + tickets *)
  mutable prewarmed : prewarm option;
}

let account_for t cls =
  match Hashtbl.find_opt t.accounts cls with
  | Some a -> a
  | None ->
      let a =
        {
          a_submitted = 0;
          a_completed = 0;
          a_shed = 0;
          a_rejected = 0;
          a_failed = 0;
          a_deadline_met = 0;
          latencies = [];
        }
      in
      Hashtbl.replace t.accounts cls a;
      a

let create ?(config = default_config) registrations =
  if registrations = [] then invalid_arg "Zoo.create: no models";
  let slos = Hashtbl.create 8 in
  let pairs =
    List.map
      (fun ((m : Serve.model), slo) ->
        if Hashtbl.mem slos m.Serve.name then
          invalid_arg
            (Printf.sprintf "Zoo.create: duplicate model %s" m.Serve.name);
        Hashtbl.replace slos m.Serve.name slo;
        (m.Serve.name, slo))
      registrations
  in
  let serve_config = { config.serve with Serve.slos = pairs } in
  let serve = Serve.create ~config:serve_config (List.map fst registrations) in
  let store = Option.map (fun dir -> Plan_store.open_ ~dir) config.plan_dir in
  {
    config;
    serve;
    registrations = pairs;
    slos;
    store;
    accounts = Hashtbl.create 4;
    tickets = Hashtbl.create 64;
    amu = Mutex.create ();
    prewarmed = None;
  }

let server t = t.serve
let models t = t.registrations

let slo t ~model =
  match Hashtbl.find_opt t.slos model with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Zoo: unknown model %s" model)

(* --- Prewarm ------------------------------------------------------------- *)

(* A store file names its (fingerprint, arch), but the bytes inside are
   what we trust least: before serving a loaded plan, its graph must
   re-fingerprint to the requested key, its arch must match, and the
   plan must satisfy every structural invariant.  The optional
   bit-identity gate on top compares canonical encodings against a
   fresh compile - the strongest check, at the price of the compile the
   store was meant to save. *)
let structurally_ok ~fingerprint ~arch plan =
  Fingerprint.of_graph plan.Astitch_plan.Kernel_plan.graph = fingerprint
  && plan.Astitch_plan.Kernel_plan.arch.Astitch_simt.Arch.name = arch
  && Astitch_plan.Kernel_plan.check_all plan = []

let prewarm t =
  match t.prewarmed with
  | Some p -> p
  | None ->
      let arch = t.config.serve.Serve.arch in
      let cache = Serve.plan_cache t.serve in
      let loaded = ref 0
      and compiled = ref 0
      and verified = ref 0
      and rejected = ref 0
      and saved = ref 0 in
      let compile_and_save g ~fingerprint =
        let result, _outcome = Session.compile_cached cache backend arch g in
        incr compiled;
        (match t.store with
        | None -> ()
        | Some store -> (
            match
              Plan_store.save store ~fingerprint ~arch:arch.name
                result.Session.plan
            with
            | Ok () -> incr saved
            | Error _ -> ()))
      in
      let handle (model, _slo) =
        let spec = Serve.spec t.serve ~model in
        let g = spec.Batching.build t.config.serve.Serve.max_batch in
        let fingerprint = Fingerprint.of_graph g in
        match t.store with
        | None -> compile_and_save g ~fingerprint
        | Some store -> (
            match Plan_store.load store ~fingerprint ~arch:arch.name with
            | Plan_store.Absent -> compile_and_save g ~fingerprint
            | Plan_store.Rejected _ ->
                incr rejected;
                compile_and_save g ~fingerprint
            | Plan_store.Loaded plan ->
                if not (structurally_ok ~fingerprint ~arch:arch.name plan)
                then begin
                  incr rejected;
                  compile_and_save g ~fingerprint
                end
                else if t.config.verify_plans then begin
                  (* Bit-identity gate: the freshly compiled plan is
                     the reference; a loaded plan that doesn't encode
                     identically is discarded (the fresh compile is
                     already cached and re-saved). *)
                  let fresh, _ = Session.compile_cached cache backend arch g in
                  incr compiled;
                  if Astitch_plan.Plan_codec.equal plan fresh.Session.plan
                  then incr verified
                  else begin
                    incr rejected;
                    ignore
                      (Plan_store.save store ~fingerprint ~arch:arch.name
                         fresh.Session.plan)
                  end
                end
                else begin
                  Session.precache cache backend arch g
                    (Session.result_of_plan backend plan);
                  incr loaded
                end)
      in
      List.iter handle t.registrations;
      Serve.warm t.serve;
      let p =
        {
          loaded = !loaded;
          compiled = !compiled;
          verified = !verified;
          rejected = !rejected;
          saved = !saved;
        }
      in
      t.prewarmed <- Some p;
      p

(* --- Per-class request accounting --------------------------------------- *)

let ensure_open t =
  if t.prewarmed = None then
    invalid_arg "Zoo: prewarm before submitting traffic"

type ticket = Serve.ticket

let cls_of t model = Slo.class_name (slo t ~model)

let locked t f =
  Mutex.lock t.amu;
  match f () with
  | v ->
      Mutex.unlock t.amu;
      v
  | exception e ->
      Mutex.unlock t.amu;
      raise e

let submit_async ?deadline_us t ~model ~params =
  ensure_open t;
  let cls = cls_of t model in
  let res = Serve.submit_async ?deadline_us t.serve ~model ~params in
  locked t (fun () ->
      let a = account_for t cls in
      match res with
      | Ok ticket ->
          a.a_submitted <- a.a_submitted + 1;
          let p_deadline_us =
            match deadline_us with
            | Some _ as d -> d
            | None -> Slo.default_deadline_us (slo t ~model)
          in
          Hashtbl.replace t.tickets ticket { p_cls = cls; p_deadline_us }
      | Error _ -> a.a_rejected <- a.a_rejected + 1);
  res

(* Fold an outcome into its class account; the ticket entry is consumed
   with the outcome, mirroring the scheduler's own outcome table. *)
let settle t ticket outcome =
  locked t (fun () ->
      match Hashtbl.find_opt t.tickets ticket with
      | None -> ()
      | Some p -> (
          Hashtbl.remove t.tickets ticket;
          let a = account_for t p.p_cls in
          match (outcome : Request.outcome) with
          | Request.Done { latency_us; _ } ->
              a.a_completed <- a.a_completed + 1;
              a.latencies <- latency_us :: a.latencies;
              let met =
                match p.p_deadline_us with
                | None -> true
                | Some d -> latency_us <= d
              in
              if met then a.a_deadline_met <- a.a_deadline_met + 1
          | Request.Overloaded _ -> a.a_shed <- a.a_shed + 1
          | Request.Failed _ -> a.a_failed <- a.a_failed + 1))

let await t ticket =
  let outcome = Serve.await t.serve ticket in
  settle t ticket outcome;
  outcome

let poll t ticket =
  match Serve.poll t.serve ticket with
  | None -> None
  | Some outcome ->
      settle t ticket outcome;
      Some outcome

let submit ?deadline_us t ~model ~params =
  match submit_async ?deadline_us t ~model ~params with
  | Ok ticket -> await t ticket
  | Error o -> Request.Overloaded o

type class_stats = {
  cls : string;
  submitted : int;
  completed : int;
  shed : int;
  rejected : int;
  failed : int;
  deadline_met : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
}

let quantile sorted q =
  match sorted with
  | [||] -> 0.
  | a ->
      let n = Array.length a in
      let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
      a.(max 0 (min (n - 1) i))

let class_stats t =
  locked t (fun () ->
      List.filter_map
        (fun cls ->
          match Hashtbl.find_opt t.accounts cls with
          | None -> None
          | Some a ->
              let sorted = Array.of_list a.latencies in
              Array.sort compare sorted;
              let n = Array.length sorted in
              let mean =
                if n = 0 then 0.
                else Array.fold_left ( +. ) 0. sorted /. float_of_int n
              in
              Some
                {
                  cls;
                  submitted = a.a_submitted;
                  completed = a.a_completed;
                  shed = a.a_shed;
                  rejected = a.a_rejected;
                  failed = a.a_failed;
                  deadline_met = a.a_deadline_met;
                  mean_us = mean;
                  p50_us = quantile sorted 0.50;
                  p95_us = quantile sorted 0.95;
                  p99_us = quantile sorted 0.99;
                })
        Slo.all_class_names)

let drain t = Serve.drain t.serve

(* Every plan a zoo can compile is its models' max-batch plans, and
   prewarm has already saved those: nothing is left to persist here. *)
let shutdown t = Serve.shutdown t.serve
