(* The request-to-reply benchmark. Build and run it through run.py:

     python3 perfbench/run.py --workload exec-fp32 --seed 1 --seconds 10 --trace 0

   With --trace 0 the last line of standard output is a JSON object
   holding the end-to-end metrics; with --trace 1, the per-layer
   metrics. The lines before it are per-item rows. *)

let workloads = [ "exec-fp32"; "exec-walker"; "serve-mix" ]

(* Every per-layer metric of a traced run, in this order. *)
let per_layer_names =
  [ "frontend.to_md_hom_us"; "lowering.plan_build_cold_us"; "lowering.plan_build_warm_us";
    "lowering.plan_cache_hit_ratio"; "tensor.gen_ms"; "tensor.rss_per_data_byte";
    "runtime.fastpath_ms"; "runtime.kernel_ms"; "runtime.bind_overhead_ratio";
    "runtime.specializer.compile_ms"; "runtime.specializer.run_ms";
    "runtime.specializer.gflops"; "runtime.dispatch_ms"; "runtime.walker_ms";
    "runtime.walker.mflops"; "core.reference_ms"; "runtime.pool.utilization";
    "runtime.pool.jobs"; "atf.tune_ms"; "atf.cost_cache_hit_ratio"; "atf.tuning_db_hit_ratio";
    "atf.evaluations"; "rewrite.optimize_us"; "rewrite.cache_hit_ratio"; "analysis.check_us";
    "serve.op.plan.p50_ms"; "serve.op.exec.p50_ms"; "serve.op.tune_hit.p50_ms";
    "serve.op.tune_miss.p50_ms"; "serve.op.optimize.p50_ms"; "serve.op.check.p50_ms";
    "serve.health_p50_ms"; "serve.exec_service_share"; "serve.shed"; "serve.errors";
    "obs.trace_overhead"; "exec.unattributed_ms"; "exec.unattributed_share" ]

let exec_items name =
  if name = "exec-walker" then Exec_load.walker_items else Exec_load.fp32_items

let exec_pass report name ~seed ~seconds ~traced =
  let items = exec_items name in
  let st = Exec_load.setup report items ~seed in
  Exec_load.warm_up report st;
  let metrics =
    if traced then Exec_load.traced report st ~seconds ~walker:(name = "exec-walker")
    else begin
      let elapsed, setup_s, cold_ms = Exec_load.measure report st ~workload:name ~seed ~seconds in
      Exec_load.print_rows st ~cold_ms;
      Exec_load.end_to_end st ~elapsed ~setup_s ~cold_ms
    end
  in
  Mdh_runtime.Pool.shutdown st.Exec_load.pool;
  metrics

let serve_pass report ~mdhd ~cpu ~seed ~seconds ~traced =
  let run = Serve_load.measure report ~mdhd ~cpu ~seed ~seconds ~traced in
  Serve_load.print_rows run;
  if traced then Serve_load.per_layer run ~seed else Serve_load.end_to_end run

let pass report name ~mdhd ~cpu ~seed ~seconds ~traced =
  if name = "serve-mix" then serve_pass report ~mdhd ~cpu ~seed ~seconds ~traced
  else exec_pass report name ~seed ~seconds ~traced

let trace_file name seed =
  Serve_load.mkdir Serve_load.run_root;
  Filename.concat Serve_load.run_root (Printf.sprintf "trace-%s-%d.json" name seed)

(* The traced run: the chosen workload's own pass gives the per-layer
   metrics of the layers it exercises; a short traced pass of each other
   workload gives the rest. *)
let traced_run report name ~mdhd ~cpu ~seed ~seconds =
  let own = pass report name ~mdhd ~cpu ~seed ~seconds ~traced:true in
  Span.write_chrome (trace_file name seed);
  let others =
    List.concat_map
      (fun other ->
        Mdh_obs.Trace.clear ();
        pass report other ~mdhd ~cpu ~seed ~seconds:(0.2 *. seconds) ~traced:true)
      (List.filter (( <> ) name) workloads)
  in
  List.map
    (fun n ->
      match List.find_opt (fun (m : Report.metric) -> m.Report.name = n) (own @ others) with
      | Some m -> m
      | None -> failwith ("perfbench: no value for " ^ n))
    per_layer_names

let () =
  let seed = ref 1 and seconds = ref 10.0 and workload = ref "" and trace = ref 0 in
  let mdhd = ref "_build/default/bin/mdhd.exe" and cpu = ref (-1) and cold = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  exec-fp32 | exec-walker | serve-mix");
      ("--seed", Arg.Set_int seed, "N  seeds the inputs and the request sequence");
      ("--seconds", Arg.Set_float seconds, "S  how long the measured loop runs");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or traced per-layer (1) run");
      ("--mdhd", Arg.Set_string mdhd, "PATH  the mdhd binary serve-mix starts");
      ("--daemon-cpu", Arg.Set_int cpu, "N  pin serve-mix's daemon to this CPU");
      ("--cold-setup", Arg.Set cold, " one timed set-up of an exec workload (a child of a run)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !cold then begin
    Exec_load.cold_child (exec_items !workload) ~seed:!seed;
    exit 0
  end;
  let cpu = if !cpu < 0 then None else Some !cpu in
  let report = Report.create () in
  let metrics =
    if !trace = 1 then traced_run report !workload ~mdhd:!mdhd ~cpu ~seed:!seed ~seconds:!seconds
    else pass report !workload ~mdhd:!mdhd ~cpu ~seed:!seed ~seconds:!seconds ~traced:false
  in
  Report.emit report metrics
