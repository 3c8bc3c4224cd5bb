(* exec-fp32 and exec-walker: one caller in a closed loop over catalogue
   items. A request is what `mdhc run --parallel` does for one item:
   Workload.to_md_hom, the parallel schedule, then Exec.run on a
   2-worker pool. Every reply is checked against the workload's
   independent oracle, computed once after set-up. *)

module W = Mdh_workloads.Workload
module Md_hom = Mdh_core.Md_hom
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Scalar = Mdh_tensor.Scalar
module Exec = Mdh_runtime.Exec
module Pool = Mdh_runtime.Pool
module Fastpath = Mdh_runtime.Fastpath
module Specializer = Mdh_runtime.Specializer
module Kernels = Mdh_runtime.Kernels
module Schedule = Mdh_lowering.Schedule
module Plan_cache = Mdh_lowering.Plan_cache
module R = Report

type item = { label : string; wl : W.t; params : W.params }

let item label name params =
  match Mdh_workloads.Catalog.find name with
  | Some wl -> { label; wl; params }
  | None -> invalid_arg ("perfbench: unknown workload " ^ name)

(* Working sets run from cache-resident (matmul 64^3 and 128^3) to
   several MB (dot, matvec, jacobi1d); every item is fp32, so each one
   runs on Fastpath or the specializer. The item counts are odd so that
   the pooled median falls inside one item's samples, not on the
   boundary between two items. *)
let fp32_items =
  [ item "dot" "dot" [ ("K", 1 lsl 19) ];
    item "matvec" "matvec" [ ("I", 1024); ("K", 512) ];
    item "matmul/64" "matmul" [ ("I", 64); ("J", 64); ("K", 64) ];
    item "matmul/128" "matmul" [ ("I", 128); ("J", 128); ("K", 128) ];
    item "matmul^t" "matmul^t" [ ("I", 16); ("J", 250); ("K", 64) ];
    item "bmatmul" "bmatmul" [ ("B", 8); ("I", 16); ("J", 64); ("K", 32) ];
    item "gaussian_2d" "gaussian_2d" [ ("N", 256); ("M", 256) ];
    item "jacobi_3d" "jacobi_3d" [ ("N", 32) ];
    item "mbbs" "mbbs" [ ("I", 512); ("J", 256) ];
    item "jacobi1d" "jacobi1d" [ ("N", 1 lsl 18) ];
    item "ccsd(t)" "ccsd(t)"
      [ ("h3", 6); ("h2", 4); ("h1", 4); ("p6", 6); ("p5", 4); ("p4", 4); ("h7", 6) ];
    item "mcc" "mcc"
      [ ("N", 1); ("P", 8); ("Q", 8); ("K", 16); ("R", 3); ("S", 3); ("C", 16) ];
    item "mcc_caps" "mcc_caps"
      [ ("N", 1); ("P", 6); ("Q", 6); ("K", 8); ("R", 3); ("S", 3); ("C", 8); ("M", 2) ] ]

(* Custom combine operators: only the generic box walker runs these. *)
let walker_items =
  [ item "prl/small" "prl" [ ("N", 32); ("I", 512) ];
    item "prl/large" "prl" [ ("N", 64); ("I", 1024) ];
    item "kmeans/small" "kmeans" [ ("N", 256); ("K", 32) ];
    item "kmeans/medium" "kmeans" [ ("N", 384); ("K", 48) ];
    item "kmeans/large" "kmeans" [ ("N", 512); ("K", 64) ] ]

let ms_since t0 = Int64.to_float (Int64.sub (Mdh_obs.Clock.now_ns ()) t0) /. 1e6

let timed f =
  let t0 = Mdh_obs.Clock.now_ns () in
  let v = f () in
  (v, ms_since t0)

(* The schedule `mdhc run --parallel` builds. *)
let schedule md =
  { (Schedule.sequential md) with
    Schedule.parallel_dims = Mdh_lowering.Lower.parallelisable_dims md }

let guard f = try f () with e -> Error (Printexc.to_string e)

let request pool it env =
  guard (fun () ->
      let md = W.to_md_hom it.wl it.params in
      Exec.run pool md (schedule md) env)

(* mdhc run's tolerance *)
let same_outputs (md : Md_hom.t) got expected =
  List.for_all
    (fun (o : Md_hom.output) ->
      let data e = Buffer.data (Buffer.env_find e o.Md_hom.out_name) in
      Dense.approx_equal ~rel:1e-3 ~abs:1e-4 (data got) (data expected))
    md.Md_hom.outputs

type prepared = {
  it : item;
  md : Md_hom.t;
  env : Buffer.env;  (* inputs *)
  expected : Buffer.env;  (* inputs plus oracle outputs *)
  flops : float;  (* points x flops per point *)
  bytes : int;  (* computed: input plus output bytes *)
  mutable lat : float list;  (* ms, successful requests only *)
}

type setup = {
  pool : Pool.t;
  items : prepared array;
  gen_ms : float array;  (* per item *)
}

(* The set-up a one-shot `mdhc run` pays in a fresh process: a new
   pool, input buffers from W.gen, and the first request of every item
   (plan build, specializer compile and first run). *)
let setup_once items ~seed =
  let t0 = Mdh_obs.Clock.now_ns () in
  let pool = Pool.create ~num_domains:1 () in
  let gen = List.map (fun it -> timed (fun () -> it.wl.W.gen it.params ~seed)) items in
  let cold =
    List.map2 (fun it (env, _) -> timed (fun () -> request pool it env)) items gen
  in
  (pool, gen, cold, ms_since t0 /. 1e3)

let check_cold report (items : prepared array) cold =
  List.iteri
    (fun i (r, _) ->
      report.R.attempted <- report.R.attempted + 1;
      let p = items.(i) in
      match r with
      | Ok got when same_outputs p.md got p.expected -> ()
      | Ok _ -> R.mismatch report (p.it.label ^ ": cold request output mismatch")
      | Error e -> R.fail report (p.it.label ^ ": " ^ e))
    cold

(* The oracle's expected outputs: computed after set-up, not timed. *)
let prepare items gen =
  Array.of_list
    (List.map2
       (fun it (env, _) ->
         let md = W.to_md_hom it.wl it.params in
         let expected =
           match it.wl.W.reference with
           | Some oracle -> oracle it.params env
           | None -> Mdh_core.Semantics.exec md env
         in
         { it; md; env; expected;
           flops = float (Md_hom.total_points md * Md_hom.flops_per_point md);
           bytes = Md_hom.input_bytes md + Md_hom.bytes_written md; lat = [] })
       items gen)

(* The state the measured loop runs on; its set-up is not timed. *)
let setup report items ~seed =
  let pool, gen, cold, _ = setup_once items ~seed in
  let items = prepare items gen in
  check_cold report items cold;
  { pool; items; gen_ms = Array.of_list (List.map snd gen) }

(* --- timed set-ups, each in a fresh process --- *)

let cold_runs = 9

(* The timed set-ups run in this many batches, between slices of the
   measured loop, so that both sample the host over the whole run. *)
let cold_batches = 3

(* The child's side: one timed set-up, then the check of its cold
   requests, reported as one line: set-up seconds, attempted, failed,
   incorrect, then each item's cold latency in ms. *)
let cold_child items ~seed =
  let report = R.create () in
  let pool, gen, cold, setup_s = setup_once items ~seed in
  check_cold report (prepare items gen) cold;
  Pool.shutdown pool;
  print_endline
    (String.concat " "
       (List.map (Printf.sprintf "%.17g")
          ([ setup_s; float report.R.attempted; float report.R.failed;
             float (List.length report.R.problems) ]
          @ List.map snd cold)))

(* The parent's side: one child. Returns its line's numbers. *)
let cold_setup report ~workload ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--cold-setup" |]
  in
  let line = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "perfbench: a cold set-up process failed");
  let v = Array.of_list (List.map float_of_string (String.split_on_char ' ' (String.trim line))) in
  report.R.attempted <- report.R.attempted + int_of_float v.(1);
  report.R.failed <- report.R.failed + int_of_float v.(2);
  if v.(3) > 0.0 then R.problem report "a cold request's output was wrong";
  v

(* One request of item [p], counted and checked; in the traced run,
   with a span around each of its stages. *)
let one report (p : prepared) pool ~req ~traced =
  report.R.attempted <- report.R.attempted + 1;
  let r, ms =
    if traced then
      timed (fun () ->
          let item = p.it.label in
          Span.run ~req ~item "request" (fun () ->
              guard (fun () ->
                  let md =
                    Span.run ~req ~item ~parent:"request" "frontend.to_md_hom" (fun () ->
                        W.to_md_hom p.it.wl p.it.params)
                  in
                  let sched = schedule md in
                  Span.run ~req ~item ~parent:"request" "runtime.exec" (fun () ->
                      Exec.run pool md sched p.env))))
    else timed (fun () -> request pool p.it p.env)
  in
  match r with
  | Ok got when same_outputs p.md got p.expected -> p.lat <- ms :: p.lat
  | Ok _ -> R.mismatch report (p.it.label ^ ": output mismatch")
  | Error e -> R.fail report (p.it.label ^ ": " ^ e)

(* Whole rounds over the items until [seconds] have passed, so every
   item gets the same number of requests. [beside] runs next to each
   request, outside its timing: after it in even rounds and before it
   in odd ones, so both pay the same garbage-collection debt on
   average. Returns the elapsed seconds. *)
(* Request ids, unique over the run, so that spans of different loops
   never share one. *)
let last_req = ref 0

let loop ?(beside = fun ~req:_ _ -> ()) report st ~seconds ~traced =
  let t0 = Mdh_obs.Clock.now_ns () in
  let round = ref 0 in
  while ms_since t0 < seconds *. 1e3 do
    incr round;
    Array.iteri
      (fun i p ->
        incr last_req;
        let req = !last_req in
        if !round mod 2 = 1 then beside ~req i;
        one report p st.pool ~req ~traced;
        if !round mod 2 = 0 then beside ~req i)
      st.items
  done;
  ms_since t0 /. 1e3

(* Requests before the measured loop, checked but not timed: after an
   idle spell the host runs the first second or so of work slowly, and
   caches fill. *)
let warm_up_s = 1.0

let warm_up report st =
  ignore (loop report st ~seconds:warm_up_s ~traced:false);
  Array.iter (fun p -> p.lat <- []) st.items


(* The measured loop, with the timed set-ups between its slices.
   Returns the loop's seconds, the median set-up seconds and each item's
   median cold latency. *)
let measure report st ~workload ~seed ~seconds =
  let elapsed = ref 0.0 and runs = ref [] in
  for _ = 1 to cold_batches do
    elapsed := !elapsed +. loop report st ~seconds:(seconds /. float cold_batches) ~traced:false;
    for _ = 1 to cold_runs / cold_batches do
      runs := cold_setup report ~workload ~seed :: !runs
    done
  done;
  ( !elapsed,
    Stat.median (List.map (fun v -> v.(0)) !runs),
    Array.init (Array.length st.items) (fun i -> Stat.median (List.map (fun v -> v.(4 + i)) !runs)) )

let print_rows st ~cold_ms =
  R.row "%-14s %10s %10s %8s %6s %12s %12s %14s" "item" "p50_ms" "tail_ms" "tail_pct"
    "n" "points" "flops" "computed_bytes";
  Array.iteri
    (fun i p ->
      let tail, pct, n = Stat.tail p.lat in
      R.row "%-14s %10.3f %10.3f %8.1f %6d %12d %12.0f %14d   cold %.2f ms, gen %.2f ms"
        p.it.label (Stat.median p.lat) tail pct n (Md_hom.total_points p.md) p.flops
        p.bytes cold_ms.(i) st.gen_ms.(i))
    st.items

let end_to_end st ~elapsed ~setup_s ~cold_ms =
  let items = Array.to_list st.items in
  let completed = List.fold_left (fun a p -> a + List.length p.lat) 0 items in
  let flops = List.fold_left (fun a p -> a +. (p.flops *. float (List.length p.lat))) 0.0 items in
  let busy_ms = List.fold_left (fun a p -> a +. List.fold_left ( +. ) 0.0 p.lat) 0.0 items in
  [ R.metric "latency_gmean_ms" "ms" (Stat.gmean_of_medians (List.map (fun p -> p.lat) items));
    R.metric "latency_p50_ms" "ms" (Stat.median (List.concat_map (fun p -> p.lat) items));
    R.metric "latency_tail_ms" "ms"
      (Stat.gmean (List.map (fun p -> let v, _, _ = Stat.tail p.lat in v) items));
    R.metric "throughput_rps" "1/s" (float completed /. elapsed);
    R.metric "work_gflops" "GFLOP/s" (flops /. (busy_ms *. 1e6));
    R.metric "cold_latency_gmean_ms" "ms" (Stat.gmean (Array.to_list cold_ms));
    R.metric "peak_rss_mb" "MB" (R.peak_rss_mb "self");
    R.metric "setup_s" "s" setup_s ]

(* --- the traced run's per-layer probes --- *)

type backend = Fastpath_kernel | Specialized | Walker

let backend_name = function
  | Fastpath_kernel -> "fastpath"
  | Specialized -> "specializer"
  | Walker -> "walker"

let plan_of pool p = Plan_cache.build p.md (Exec.host_device pool) (schedule p.md)

(* The backend Exec.run dispatches [p] to, in its own order. *)
let backend_of pool p plan =
  if Fastpath.try_run pool plan p.md p.env <> None then Fastpath_kernel
  else if Specializer.supported plan p.md = Ok () then Specialized
  else Walker

let call_backend pool p plan = function
  | Fastpath_kernel -> Fastpath.try_run pool plan p.md p.env
  | Specialized -> Specializer.try_run pool plan p.md p.env
  | Walker ->
    Result.to_option (Exec.run_with_plan ~fastpath:false ~specialize:false pool plan p.md p.env)

let flat env name =
  let d = Buffer.data (Buffer.env_find env name) in
  Array.init (Dense.num_elements d) (fun i -> Scalar.to_float (Dense.get_linear d i))

(* The hand-written kernel over flat arrays built here, in set-up, for
   the items Fastpath matches; [None] for the others. *)
let kernel_of pool p =
  let f = flat p.env and n = W.p p.it.params in
  match String.lowercase_ascii p.it.wl.W.wl_name with
  | "dot" ->
    let x = f "x" and y = f "y" in
    Some (fun () -> [| Kernels.dot_par pool x y |])
  | "matvec" ->
    let m = f "M" and v = f "v" in
    Some (fun () -> Kernels.matvec_par pool ~m:(n "I") ~k:(n "K") m v)
  | "matmul" ->
    let a = f "A" and b = f "B" in
    Some (fun () -> Kernels.matmul_par pool ~m:(n "I") ~n:(n "J") ~k:(n "K") a b)
  | _ -> None

let kernel_matches p out =
  let o = List.hd p.md.Md_hom.outputs in
  let want = flat p.expected o.Md_hom.out_name in
  Array.length want = Array.length out
  && Array.for_all2 (Mdh_support.Util.float_equal ~rel:1e-3 ~abs:1e-4) want out

let probe_reps = 3

(* Untraced and traced slices of the traced run's loop. *)
let slices = 4

(* Seconds the pool's worker domains (not the caller) spent on jobs. *)
let worker_busy (s : Pool.stats) =
  Array.fold_left ( +. ) 0.0 (Array.sub s.Pool.busy_s 1 (Array.length s.Pool.busy_s - 1))

(* The largest share of a request's wall time that may fall outside the
   spans of its stages before the traced run fails. *)
let unattributed_limit = 0.05

(* The traced run: [seconds] split between untraced slices of the loop
   (the base of obs.trace_overhead) and traced ones, where each request
   has a warm plan build and a direct call of its backend beside it;
   then probes of cold plan builds, specializer compiles, the reference
   semantics and the hand-written kernels. Returns the per-layer
   metrics. *)
let traced report st ~seconds ~walker =
  let module T = Mdh_obs.Trace in
  let pool = st.pool in
  let plans = Array.map (fun p -> Result.get_ok (plan_of pool p)) st.items in
  let backends = Array.mapi (fun i p -> backend_of pool p plans.(i)) st.items in
  let kernels = Array.map (kernel_of pool) st.items in
  let beside ~req i =
    let p = st.items.(i) in
    let item = p.it.label in
    ignore (Span.run ~req ~item "lowering.plan_build" (fun () -> plan_of pool p));
    let b = backends.(i) in
    match
      Span.run ~req ~item ("backend." ^ backend_name b) (fun () -> call_backend pool p plans.(i) b)
    with
    | Some got when same_outputs p.md got p.expected -> ()
    | _ -> R.problem report (item ^ ": direct " ^ backend_name b ^ " call mismatch")
  in
  (* untraced and traced slices alternate, so drift over the run
     falls on both sides of obs.trace_overhead; the pool and plan-cache
     figures come from the untraced slices, which make no extra calls *)
  let n = Array.length st.items in
  let untraced = Array.make n [] and traced = Array.make n [] in
  let stash into = Array.iteri (fun i p -> into.(i) <- p.lat @ into.(i); p.lat <- []) st.items in
  let busy = ref 0.0 and wall = ref 0.0 and jobs = ref 0 and requests = ref 0 in
  let hits = ref 0 and misses = ref 0 in
  for _ = 1 to slices do
    let pool0 = Pool.stats pool and plan0 = Plan_cache.stats () and n0 = report.R.attempted in
    ignore (loop report st ~seconds:(seconds *. 0.3 /. float slices) ~traced:false);
    let pool1 = Pool.stats pool and plan1 = Plan_cache.stats () in
    busy := !busy +. worker_busy pool1 -. worker_busy pool0;
    wall := !wall +. pool1.Pool.wall_s -. pool0.Pool.wall_s;
    jobs := !jobs + pool1.Pool.jobs_run - pool0.Pool.jobs_run;
    requests := !requests + report.R.attempted - n0;
    hits := !hits + plan1.Plan_cache.n_hits - plan0.Plan_cache.n_hits;
    misses := !misses + plan1.Plan_cache.n_misses - plan0.Plan_cache.n_misses;
    stash untraced;
    T.set_enabled true;
    ignore (loop report st ~seconds:(seconds *. 0.5 /. float slices) ~traced:true ~beside);
    T.set_enabled false;
    stash traced
  done;
  T.set_enabled true;
  let req = ref 1_000_000 in
  let probe name p f = incr req; Span.run ~req:!req ~item:p.it.label name f in
  for _ = 1 to probe_reps do
    Array.iteri
      (fun i p ->
        Plan_cache.clear ();
        ignore (probe "lowering.plan_build_cold" p (fun () -> plan_of pool p));
        ignore (probe "lowering.plan_build_warm" p (fun () -> plan_of pool p));
        if backends.(i) = Specialized then
          ignore (probe "runtime.specializer.compile" p (fun () -> Specializer.compile plans.(i) p.md));
        if walker then ignore (probe "core.reference" p (fun () -> Mdh_core.Semantics.exec p.md p.env));
        Option.iter
          (fun k ->
            if not (kernel_matches p (probe "runtime.kernel" p k)) then
              R.problem report (p.it.label ^ ": kernel mismatch");
            ignore (probe "runtime.fastpath" p (fun () -> Fastpath.try_run pool plans.(i) p.md p.env)))
          kernels.(i))
      st.items
  done;
  T.set_enabled false;
  let spans = Span.collect () in
  let labels_where f =
    List.filteri (fun i _ -> f i) (Array.to_list (Array.map (fun p -> p.it.label) st.items))
  in
  let all = labels_where (fun _ -> true) in
  let gmean_of name labels = Stat.gmean (List.map (Span.median spans name) labels) in
  let with_backend b = labels_where (fun i -> backends.(i) = b) in
  let with_kernel = labels_where (fun i -> kernels.(i) <> None) in
  (* throughput of backend [b]: computed flops over the median call *)
  let rate b =
    let flops = ref 0.0 and ms = ref 0.0 in
    Array.iteri
      (fun i p ->
        if backends.(i) = b then begin
          flops := !flops +. p.flops;
          ms := !ms +. Span.median spans ("backend." ^ backend_name b) p.it.label
        end)
      st.items;
    !flops /. (!ms *. 1e-3)
  in
  let unattributed =
    Array.map
      (fun p ->
        let self = Stat.median (Span.self_times ~item:p.it.label spans "request") in
        (self, self /. Span.median spans "request" p.it.label))
      st.items
  in
  R.row "%-14s %-12s %12s %14s %12s %12s" "item" "backend" "request_ms" "unattributed_ms"
    "dispatch_ms" "backend_ms";
  (* per request: Exec.run minus the warm plan build and the backend
     call made beside it *)
  let plan_at = Span.by_req spans "lowering.plan_build" in
  let dispatch =
    Array.mapi
      (fun i p ->
        let item = p.it.label and b = "backend." ^ backend_name backends.(i) in
        let backend_at = Span.by_req spans b in
        let d =
          Stat.median
            (List.filter_map
               (fun (x : Span.span) ->
                 match (Hashtbl.find_opt plan_at x.Span.req, Hashtbl.find_opt backend_at x.Span.req) with
                 | Some plan, Some backend when x.Span.item = item -> Some (x.Span.ms -. plan -. backend)
                 | _ -> None)
               (List.filter (fun (x : Span.span) -> x.Span.name = "runtime.exec") spans))
        in
        R.row "%-14s %-12s %12.4f %14.5f %12.4f %12.4f" item (backend_name backends.(i))
          (Span.median spans "request" item) (fst unattributed.(i)) d
          (Span.median spans b item);
        d)
      st.items
  in
  let worst = Array.fold_left (fun a (_, share) -> Float.max a share) 0.0 unattributed in
  if worst > unattributed_limit then
    R.problem report
      (Printf.sprintf "stages do not add up: %.1f%% of a request's wall time is unattributed"
         (100.0 *. worst));
  let data_bytes = Array.fold_left (fun a p -> a + p.bytes) 0 st.items in
  let m = R.metric in
  [ m "frontend.to_md_hom_us" "us" (1e3 *. gmean_of "frontend.to_md_hom" all);
    m "lowering.plan_build_cold_us" "us" (1e3 *. gmean_of "lowering.plan_build_cold" all);
    m "lowering.plan_build_warm_us" "us" (1e3 *. gmean_of "lowering.plan_build_warm" all);
    m "lowering.plan_cache_hit_ratio" "ratio" (float !hits /. float (!hits + !misses));
    m "tensor.gen_ms" "ms" (Stat.gmean (Array.to_list st.gen_ms));
    m "tensor.rss_per_data_byte" "ratio" (R.peak_rss_mb "self" *. 1048576.0 /. float data_bytes);
    m "runtime.pool.utilization" "ratio"
      (!busy /. (!wall *. float (Pool.num_workers pool - 1)));
    m "runtime.pool.jobs" "count" (float !jobs /. float !requests);
    m "runtime.dispatch_ms" "ms" (Stat.median (Array.to_list dispatch));
    m "exec.unattributed_ms" "ms"
      (Array.fold_left (fun a (ms, _) -> Float.max a ms) neg_infinity unattributed);
    m "exec.unattributed_share" "ratio" worst;
    m "obs.trace_overhead" "ratio"
      (Stat.gmean_of_medians (Array.to_list traced) /. Stat.gmean_of_medians (Array.to_list untraced)) ]
  @ (if with_kernel = [] then []
     else
       let fast = gmean_of "runtime.fastpath" with_kernel
       and kernel = gmean_of "runtime.kernel" with_kernel in
       [ m "runtime.fastpath_ms" "ms" fast; m "runtime.kernel_ms" "ms" kernel;
         m "runtime.bind_overhead_ratio" "ratio" (fast /. kernel) ])
  @ (match with_backend Specialized with
    | [] -> []
    | special ->
      [ m "runtime.specializer.compile_ms" "ms" (gmean_of "runtime.specializer.compile" special);
        m "runtime.specializer.run_ms" "ms" (gmean_of "backend.specializer" special);
        m "runtime.specializer.gflops" "GFLOP/s" (rate Specialized /. 1e9) ])
  @ (match with_backend Walker with
    | [] -> []
    | walked ->
      [ m "runtime.walker_ms" "ms" (gmean_of "backend.walker" walked);
        m "runtime.walker.mflops" "MFLOP/s" (rate Walker /. 1e6) ])
  @ if walker then [ m "core.reference_ms" "ms" (gmean_of "core.reference" all) ] else []
