(* serve-mix: an out-of-process mdhd on a fresh socket, tuning database
   and state directory, driven by one client process over 2 connections
   in a closed loop. The request sequence is a seeded mix of ops; every
   reply is validated against an in-process computation of the same
   request. *)

module W = Mdh_workloads.Workload
module Client = Mdh_serve.Client
module Jin = Mdh_support.Json_in
module J = Mdh_obs.Json
module Rng = Mdh_support.Rng
module Device = Mdh_machine.Device
module Plan_cache = Mdh_lowering.Plan_cache
module D = Mdh_analysis.Diagnostic
module R = Report

type op = Plan | Exec | Tune_hit | Tune_miss | Optimize | Check | Health

let op_name = function
  | Plan -> "plan" | Exec -> "exec" | Tune_hit -> "tune_hit"
  | Tune_miss -> "tune_miss" | Optimize -> "optimize" | Check -> "check"
  | Health -> "health"

let ops = [ Plan; Exec; Tune_hit; Tune_miss; Optimize; Check; Health ]

(* One block of ten requests: plan 30%, exec 20%, tune 20% (half
   repeating a key already in the database, half with a fresh seed),
   optimize, check and health 10% each. Each block is shuffled by the
   seeded generator, so the shares are exact, not sampled. *)
let block = [| Plan; Plan; Plan; Exec; Exec; Tune_hit; Tune_miss; Optimize; Check; Health |]

let workloads = Array.of_list Mdh_workloads.Catalog.all
let devices = [| ("cpu", Device.xeon6140_like); ("gpu", Device.a100_like) |]
let wl_key (w : W.t) = String.lowercase_ascii w.W.wl_name

type request = { id : int; op : op; wl : W.t; dev : string; seed : int }

(* The fields of one request on the wire. *)
let fields r =
  let wl = ("workload", J.quote (wl_key r.wl)) and dev = ("device", J.quote r.dev) in
  match r.op with
  | Plan | Optimize -> [ wl; dev ]
  | Exec -> [ wl; ("input", J.quote "test"); ("seed", string_of_int r.seed) ]
  | Tune_hit | Tune_miss -> [ wl; dev; ("seed", string_of_int r.seed) ]
  | Check -> [ wl ]
  | Health -> []

let wire_op = function
  | Tune_hit | Tune_miss -> "tune"
  | op -> op_name op

(* The seeded request sequence: op order from the generator, workloads
   cycling over the catalogue per op, and the device alternating
   between cpu and gpu on every pass over the catalogue. *)
type sequence = {
  rng : Rng.t;
  mutable pending : op list;
  counters : (op, int) Hashtbl.t;
  base_seed : int;
  mutable fresh : int;
  mutable issued : int;
  mu : Mutex.t;
}

let sequence ~seed =
  { rng = Rng.create seed; pending = []; counters = Hashtbl.create 8;
    base_seed = seed; fresh = 0; issued = 0; mu = Mutex.create () }

let next s =
  Mutex.lock s.mu;
  if s.pending = [] then begin
    let b = Array.copy block in
    Rng.shuffle s.rng b;
    s.pending <- Array.to_list b
  end;
  let op = List.hd s.pending in
  s.pending <- List.tl s.pending;
  let c = Option.value ~default:0 (Hashtbl.find_opt s.counters op) in
  Hashtbl.replace s.counters op (c + 1);
  let n = Array.length workloads in
  let seed =
    if op = Tune_miss then begin
      s.fresh <- s.fresh + 1;
      (s.base_seed * 1_000_003) + s.fresh
    end
    else s.base_seed
  in
  s.issued <- s.issued + 1;
  let id = s.issued in
  Mutex.unlock s.mu;
  { id; op; wl = workloads.(c mod n); dev = fst devices.((c / n) mod 2); seed }

(* --- expected replies, computed in-process --- *)

type expected = {
  digests : (string * string, string) Hashtbl.t;  (* (workload, device) *)
  optimized : (string * string, string) Hashtbl.t;
  counts : (string, int * int * int) Hashtbl.t;  (* errors, warnings, hints *)
}

let md_of (w : W.t) = W.to_md_hom w w.W.test_params

let expect () =
  let e =
    { digests = Hashtbl.create 32; optimized = Hashtbl.create 32; counts = Hashtbl.create 16 }
  in
  let oracle = Mdh_analysis.Opcheck_oracle.oracle () in
  Array.iter
    (fun (w : W.t) ->
      let md = md_of w in
      Array.iter
        (fun (dname, dev) ->
          let sched = Mdh_lowering.Lower.mdh_default md dev in
          (match Plan_cache.build md dev sched with
          | Ok plan -> Hashtbl.replace e.digests (wl_key w, dname) (Mdh_lowering.Plan.digest plan)
          | Error _ -> ());
          match
            Mdh_rewrite.Rewrite.optimize ~oracle md dev Mdh_lowering.Cost.tuned_codegen
              sched
          with
          | Ok r ->
            Hashtbl.replace e.optimized (wl_key w, dname)
              (Mdh_lowering.Plan.digest r.Mdh_rewrite.Rewrite.r_plan)
          | Error _ -> ())
        devices;
      let ds = Mdh_analysis.Analyze.directive (w.W.make w.W.test_params) in
      Hashtbl.replace e.counts (wl_key w) (D.error_count ds, D.warning_count ds, D.hint_count ds))
    workloads;
  e

(* [`Failed] for an error reply, [`Wrong] for a reply that differs from
   the in-process computation of the same request. *)
let validate e r (reply : Client.reply) =
  let res = Option.value ~default:(Jin.Obj []) reply.Client.result in
  let str k = Jin.get_string res k and int k = Option.map int_of_float (Jin.get_float res k) in
  let key = (wl_key r.wl, r.dev) in
  let what = Printf.sprintf "%s %s/%s: " (op_name r.op) (wl_key r.wl) r.dev in
  let check ok why = if ok then Ok () else Error (`Wrong (what ^ why)) in
  if not reply.Client.ok then
    Error
      (`Failed
        (what ^ Option.value ~default:"error" reply.Client.code ^ ": "
        ^ Option.value ~default:"" reply.Client.error))
  else
    match r.op with
    | Plan -> check (str "digest" = Hashtbl.find_opt e.digests key) "plan digest differs"
    | Optimize ->
      check (str "digest" = Hashtbl.find_opt e.optimized key) "optimized digest differs"
    | Exec -> check (Jin.get_bool res "checked" = Some true) "exec output not checked"
    | Tune_hit | Tune_miss ->
      check (str "status" = Some "tuned" && Option.is_some (str "schedule")) "not tuned"
    | Check ->
      let e_, w_, h_ = Hashtbl.find e.counts (wl_key r.wl) in
      check
        ((int "errors", int "warnings", int "hints") = (Some e_, Some w_, Some h_))
        "diagnostic counts differ"
    | Health -> check (str "status" = Some "ok") "not healthy"

(* --- the daemon --- *)

let run_root = ".perfbench_run"

type daemon = { pid : int; dir : string; socket : string; db : string }

(* Daemons not yet stopped; killed and reaped if the run dies early. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let mkdir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* [cpu]: the CPU the daemon is pinned to (with taskset), if any. *)
let spawn ~mdhd ~cpu ~tag =
  mkdir run_root;
  let dir = Filename.concat run_root (Printf.sprintf "%d-%s" (Unix.getpid ()) tag) in
  mkdir dir;
  let socket = Filename.concat dir "d.sock" and db = Filename.concat dir "tuning.db" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"MDH_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let argv =
    (match cpu with Some c -> [ "taskset"; "-c"; string_of_int c ] | None -> [])
    @ [ mdhd; "--socket"; socket; "--tuning-db"; db ]
  in
  let pid = Unix.create_process_env (List.hd argv) (Array.of_list argv) env null null null in
  Unix.close null;
  live := pid :: !live;
  { pid; dir; socket; db }

let rpc d op fields = Client.request ~timeout_s:30.0 ~socket:d.socket ~op fields

let wait_healthy d =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match rpc d "health" [] with
    | Ok { Client.ok = true; _ } -> ()
    | _ when Unix.gettimeofday () -. t0 > 20.0 -> failwith "mdhd did not come up"
    | _ ->
      Thread.delay 0.001;
      go ()
  in
  go ()

(* SIGTERM, exit 0, and nothing of the daemon's left behind: the socket
   and state directory are the daemon's to remove; the database and its
   lock file belong to the run and are removed here. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  let problems = ref [] in
  if status <> Unix.WEXITED 0 then problems := "mdhd did not exit 0" :: !problems;
  if Sys.file_exists d.socket then problems := "socket left behind" :: !problems;
  if Sys.file_exists (d.socket ^ ".state") then problems := "state dir left behind" :: !problems;
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ d.db; d.db ^ ".lock" ];
  (match Sys.readdir d.dir with
  | [||] -> ()
  | left -> problems := ("left behind: " ^ String.concat " " (Array.to_list left)) :: !problems);
  (try Unix.rmdir d.dir with Unix.Unix_error _ -> ());
  (try Unix.rmdir run_root with Unix.Unix_error _ -> ());
  !problems

(* --- measurement --- *)

type sample = {
  s_op : op;
  s_wl : W.t;
  s_ms : float;
  s_exec_s : float option;  (* the daemon's own exec time *)
}

let send report e d ~traced r =
  report.R.attempted <- report.R.attempted + 1;
  let call () = rpc d (wire_op r.op) (fields r) in
  let t0 = Mdh_obs.Clock.now_ns () in
  let reply =
    if traced then Span.run ~req:r.id ~item:(op_name r.op) ("serve." ^ op_name r.op) call
    else call ()
  in
  let ms = Exec_load.ms_since t0 in
  match reply with
  | Error msg ->
    R.fail report (op_name r.op ^ ": " ^ msg);
    None
  | Ok reply -> (
    match validate e r reply with
    | Error (`Failed why) ->
      R.fail report why;
      None
    | Error (`Wrong why) ->
      R.mismatch report why;
      None
    | Ok () ->
      let exec_s =
        Option.bind reply.Client.result (fun res -> Jin.get_float res "elapsed_s")
      in
      Some { s_op = r.op; s_wl = r.wl; s_ms = ms; s_exec_s = exec_s })

(* One warm-up request per distinct (op, workload, device) key: the
   first request of each key on a fresh daemon. Tune misses have no key
   to warm: each one has a fresh seed. *)
let warm_up report e d ~seed =
  let wls = Array.to_list workloads in
  let req op wl dev = { id = 0; op; wl; dev; seed } in
  List.concat_map
    (fun op ->
      match op with
      | Tune_miss -> []
      | Health -> [ req op workloads.(0) "cpu" ]
      | Exec | Check -> List.map (fun wl -> req op wl "cpu") wls
      | Plan | Tune_hit | Optimize ->
        List.concat_map (fun wl -> List.map (fun (dev, _) -> req op wl dev) (Array.to_list devices)) wls)
    ops
  |> List.filter_map (send report e d ~traced:false)

(* The daemon's registry: counters and gauges, and each histogram's sum
   and count. *)
let registry d =
  match rpc d "metrics" [] with
  | Ok { Client.ok = true; result = Some res; _ } -> (
    match Jin.member "registry" res with
    | Some (Jin.Obj kvs) ->
      List.concat_map
        (fun (k, v) ->
          match v with
          | Jin.Num x -> [ (k, x) ]
          | Jin.Obj _ ->
            List.filter_map
              (fun f -> Option.map (fun x -> (k ^ "." ^ f, x)) (Jin.get_float v f))
              [ "sum"; "count" ]
          | _ -> [])
        kvs
    | _ -> [])
  | _ -> []

(* 2 connections in a closed loop over the sequence for [seconds]. *)
let load report e d seq ~seconds ~traced =
  let samples = ref [] and mu = Mutex.create () in
  let t0 = Mdh_obs.Clock.now_ns () in
  let client () =
    let mine = ref [] in
    while Exec_load.ms_since t0 < seconds *. 1e3 do
      Option.iter (fun s -> mine := s :: !mine) (send report e d ~traced (next seq))
    done;
    Mutex.lock mu;
    samples := !mine @ !samples;
    Mutex.unlock mu
  in
  List.iter Thread.join (List.init 2 (fun _ -> Thread.create client ()));
  (!samples, Exec_load.ms_since t0 /. 1e3)

type run = {
  samples : sample list;
  untraced : sample list;  (* traced run only: the overhead's base *)
  elapsed : float;
  setup_s : float;
  cold : sample list;  (* the timed set-ups' warm-up requests *)
  rss_mb : float;
  registry : (string * float) list;  (* daemon counters over the loop *)
}

(* Daemon start to the first health reply, plus the warm-up requests. *)
let boot report e ~mdhd ~cpu ~seed ~tag =
  let t0 = Mdh_obs.Clock.now_ns () in
  let d = spawn ~mdhd ~cpu ~tag in
  wait_healthy d;
  let first = warm_up report e d ~seed in
  (d, Exec_load.ms_since t0 /. 1e3, first)

let measure report ~mdhd ~cpu ~seed ~seconds ~traced =
  let e = expect () in
  let d, _, _ = boot report e ~mdhd ~cpu ~seed ~tag:"run" in
  let seq = sequence ~seed in
  ignore (load report e d seq ~seconds:Exec_load.warm_up_s ~traced:false);
  let before = registry d in
  (* timed set-ups, each on a fresh daemon, between slices of the
     measured loop *)
  let setups = ref [] in
  let timed_boots () =
    for i = 1 to Exec_load.cold_runs / Exec_load.cold_batches do
      let d, s, first = boot report e ~mdhd ~cpu ~seed ~tag:(string_of_int i) in
      List.iter (R.problem report) (stop d);
      setups := (s, first) :: !setups
    done
  in
  let untraced = ref [] and samples = ref [] and elapsed = ref 0.0 in
  if traced then
    (* alternating slices, so drift falls on both sides of the tracing
       overhead *)
    for _ = 1 to Exec_load.slices do
      let u, _ =
        load report e d seq ~seconds:(seconds *. 0.4 /. float Exec_load.slices) ~traced:false
      in
      Mdh_obs.Trace.set_enabled true;
      let t, s =
        load report e d seq ~seconds:(seconds *. 0.5 /. float Exec_load.slices) ~traced:true
      in
      Mdh_obs.Trace.set_enabled false;
      untraced := u @ !untraced;
      samples := t @ !samples;
      elapsed := !elapsed +. s
    done
  else
    for _ = 1 to Exec_load.cold_batches do
      let t, s =
        load report e d seq ~seconds:(seconds /. float Exec_load.cold_batches) ~traced:false
      in
      samples := t @ !samples;
      elapsed := !elapsed +. s;
      timed_boots ()
    done;
  let after = registry d in
  let rss_mb = R.peak_rss_mb (string_of_int d.pid) in
  List.iter (R.problem report) (stop d);
  let delta =
    List.map
      (fun (k, v) -> (k, v -. Option.value ~default:0.0 (List.assoc_opt k before)))
      after
  in
  { samples = !samples; untraced = !untraced; elapsed = !elapsed;
    setup_s = Stat.median (List.map fst !setups); cold = List.concat_map snd !setups;
    rss_mb; registry = delta }

let by_op samples op =
  List.filter_map (fun s -> if s.s_op = op then Some s.s_ms else None) samples

let gmean_over_ops samples = Stat.gmean_of_medians (List.map (by_op samples) ops)

let print_rows run =
  R.row "%-10s %10s %10s %8s %7s" "op" "p50_ms" "tail_ms" "tail_pct" "n";
  List.iter
    (fun op ->
      let xs = by_op run.samples op in
      let tail, pct, n = Stat.tail xs in
      R.row "%-10s %10.4f %10.4f %8.2f %7d" (op_name op) (Stat.median xs) tail pct n)
    ops;
  let all = List.map (fun s -> s.s_ms) run.samples in
  let a = Stat.sorted all in
  let at q = a.(min (Array.length a - 1) (int_of_float (q *. float (Array.length a)))) in
  let tail, pct, n = Stat.tail all in
  R.row "pooled: p50 %.4f  p90 %.4f  p99 %.4f  p99.9 %.4f  tail %.4f (p%.3f over %d requests)"
    (at 0.5) (at 0.9) (at 0.99) (at 0.999) tail pct n

(* Computed flops of the exec requests over their request time. *)
let work_gflops samples =
  let flops = ref 0.0 and ms = ref 0.0 in
  List.iter
    (fun s ->
      if s.s_op = Exec then begin
        let md = md_of s.s_wl in
        flops := !flops +. float (Mdh_core.Md_hom.total_points md * Mdh_core.Md_hom.flops_per_point md);
        ms := !ms +. s.s_ms
      end)
    samples;
  !flops /. (!ms *. 1e6)

let end_to_end run =
  let all = List.map (fun s -> s.s_ms) run.samples in
  let tail, _, _ = Stat.tail all in
  [ R.metric "latency_gmean_ms" "ms" (gmean_over_ops run.samples);
    R.metric "latency_p50_ms" "ms" (Stat.median all);
    R.metric "latency_tail_ms" "ms" tail;
    R.metric "throughput_rps" "1/s" (float (List.length all) /. run.elapsed);
    R.metric "work_gflops" "GFLOP/s" (work_gflops run.samples);
    R.metric "cold_latency_gmean_ms" "ms"
      (Stat.gmean
         (List.filter_map
            (fun op -> match by_op run.cold op with [] -> None | xs -> Some (Stat.median xs))
            ops));
    R.metric "peak_rss_mb" "MB" run.rss_mb;
    R.metric "setup_s" "s" run.setup_s ]

(* In-process, the calls the daemon's plan, optimize and check handlers
   make, replayed over the first [replay] requests of the same seeded
   sequence, each in a span. *)
let replay = 2000

let layer_pass ~seed =
  let oracle = Mdh_analysis.Opcheck_oracle.oracle () in
  let seq = sequence ~seed in
  Plan_cache.clear ();
  let rw0 = Mdh_rewrite.Rewrite.cache_stats () in
  let first = Hashtbl.create 64 in
  Mdh_obs.Trace.set_enabled true;
  for _ = 1 to replay do
    let r = next seq in
    let item = wl_key r.wl and req = r.id in
    let dev = List.assoc r.dev (Array.to_list devices) in
    let md () = Span.run ~req ~item "frontend.to_md_hom" (fun () -> md_of r.wl) in
    let seen = Hashtbl.mem first (r.op, item, r.dev) in
    Hashtbl.replace first (r.op, item, r.dev) ();
    match r.op with
    | Plan ->
      let md = md () in
      let sched = Mdh_lowering.Lower.mdh_default md dev in
      Span.run ~req ~item
        (if seen then "lowering.plan_build_warm" else "lowering.plan_build_cold")
        (fun () -> ignore (Plan_cache.build md dev sched))
    | Optimize ->
      let md = md () in
      let sched = Mdh_lowering.Lower.mdh_default md dev in
      Span.run ~req ~item
        (if seen then "rewrite.optimize_warm" else "rewrite.optimize")
        (fun () ->
          ignore
            (Mdh_rewrite.Rewrite.optimize_cached ~oracle md dev
               Mdh_lowering.Cost.tuned_codegen sched))
    | Check ->
      Span.run ~req ~item "analysis.check" (fun () ->
          ignore (Mdh_analysis.Analyze.directive (r.wl.W.make r.wl.W.test_params)))
    | Exec | Tune_hit | Tune_miss | Health -> ()
  done;
  Mdh_obs.Trace.set_enabled false;
  let rw1 = Mdh_rewrite.Rewrite.cache_stats () in
  let module RW = Mdh_rewrite.Rewrite in
  let hits = rw1.RW.n_hits - rw0.RW.n_hits and misses = rw1.RW.n_misses - rw0.RW.n_misses in
  float hits /. float (hits + misses)

let per_layer run ~seed =
  let rewrite_hit_ratio = layer_pass ~seed in
  let spans = Span.collect () in
  let items = Array.to_list (Array.map wl_key workloads) in
  let gmean_of name =
    Stat.gmean
      (List.filter_map
         (fun item ->
           match Span.durations ~item spans name with [] -> None | xs -> Some (Stat.median xs))
         items)
  in
  let reg k = Option.value ~default:0.0 (List.assoc_opt k run.registry) in
  let ratio a b = reg a /. (reg a +. reg b) in
  let op_p50 op = Stat.median (Span.durations ~item:(op_name op) spans ("serve." ^ op_name op)) in
  let service_share =
    Stat.median
      (List.filter_map
         (fun s ->
           match (s.s_op, s.s_exec_s) with
           | Exec, Some sec -> Some (sec *. 1e3 /. s.s_ms)
           | _ -> None)
         run.samples)
  in
  let m = R.metric in
  List.map
    (fun op -> m (Printf.sprintf "serve.op.%s.p50_ms" (op_name op)) "ms" (op_p50 op))
    (List.filter (fun op -> op <> Health) ops)
  @ [ m "serve.health_p50_ms" "ms" (op_p50 Health);
      m "serve.exec_service_share" "ratio" service_share;
      m "serve.shed" "count" (reg "serve.shed");
      m "serve.errors" "count" (reg "serve.errors");
      m "atf.tune_ms" "ms" (1e3 *. reg "atf.tuner.tune_s.sum" /. reg "atf.tuner.tune_s.count");
      m "atf.cost_cache_hit_ratio" "ratio" (ratio "atf.cost_cache.hits" "atf.cost_cache.misses");
      m "atf.tuning_db_hit_ratio" "ratio" (reg "atf.tuning_db.hits" /. reg "atf.tuning_db.lookups");
      m "atf.evaluations" "count" (reg "atf.search.evaluations" /. reg "atf.tuner.runs");
      m "lowering.plan_cache_hit_ratio" "ratio"
        (ratio "lowering.plan_cache.hits" "lowering.plan_cache.misses");
      m "frontend.to_md_hom_us" "us" (1e3 *. gmean_of "frontend.to_md_hom");
      m "lowering.plan_build_cold_us" "us" (1e3 *. gmean_of "lowering.plan_build_cold");
      m "lowering.plan_build_warm_us" "us" (1e3 *. gmean_of "lowering.plan_build_warm");
      m "rewrite.optimize_us" "us" (1e3 *. gmean_of "rewrite.optimize");
      m "rewrite.cache_hit_ratio" "ratio" rewrite_hit_ratio;
      m "analysis.check_us" "us" (1e3 *. gmean_of "analysis.check");
      m "obs.trace_overhead" "ratio" (gmean_over_ops run.samples /. gmean_over_ops run.untraced) ]
