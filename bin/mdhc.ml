(* mdhc — the MDH directive compiler driver.

   Inspect, validate, auto-tune, cost and execute the catalogue's
   directive programs:

     mdhc list
     mdhc devices
     mdhc show matvec
     mdhc tune matmul --device cpu --budget 400
     mdhc tune matmul --parallel --chains 4
     mdhc tune matmul --no-cache        (ignore + don't write the tuning db)
     mdhc tune matmul --tuning-db /tmp/t.db
     mdhc compare ccsd(t) --device gpu
     mdhc run prl --parallel
     mdhc tune matmul --trace /tmp/t.json --metrics   (observability)
     mdhc tune matmul --deadline 0.5     (suspend to a checkpoint, exit 3)
     mdhc tune matmul --resume           (continue bit-identically)
     mdhc tune matmul --inject 'cost.eval:raise@40'   (chaos testing)
     mdhc check                          (analyze the whole catalogue)
     mdhc check matvec --strict
     mdhc check --file examples/mcc.mdh -P N=1 ... --json
     mdhc optimize prl                   (verified equality-saturation pass)
     mdhc optimize prl --json --device gpu
     mdhc plan matvec --device cpu      (print the executable plan IR)
     mdhc plan --digest                 (stable structural fingerprints)
     mdhc profile matmul                (per-plan-level time breakdown)
     mdhc profile matmul --json --flame matmul.folded
     mdhc tune matmul --remote /tmp/mdh.sock   (via a running mdhd daemon)
     mdhc run prl --remote /tmp/mdh.sock *)

open Cmdliner

let version = "1.8.0"

module W = Mdh_workloads.Workload
module Device = Mdh_machine.Device
module Schedule = Mdh_lowering.Schedule
module Cost = Mdh_lowering.Cost
module Common = Mdh_baselines.Common
module Buffer = Mdh_tensor.Buffer

let find_workload name =
  match Mdh_workloads.Catalog.find name with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown workload %S; try: %s" name
         (String.concat ", "
            (List.map
               (fun (w : W.t) -> String.lowercase_ascii w.W.wl_name)
               Mdh_workloads.Catalog.all)))

let device_of_string = function
  | "gpu" -> Ok Device.a100_like
  | "cpu" -> Ok Device.xeon6140_like
  | s -> Error (Printf.sprintf "unknown device %S (gpu|cpu)" s)

let params_of (w : W.t) = function
  | "test" -> Ok w.W.test_params
  | inp -> (
    match List.assoc_opt inp w.W.paper_inputs with
    | Some params -> Ok params
    | None -> Error (Printf.sprintf "workload has no input set %S" inp))

let or_die = function
  | Ok x -> x
  | Error msg ->
    prerr_endline ("mdhc: " ^ msg);
    exit 1

(* --- remote mode (tuning-as-a-service, docs/SERVING.md) --- *)

module Client = Mdh_serve.Client
module Protocol = Mdh_serve.Protocol
module Js = Mdh_obs.Json
module Jin = Mdh_support.Json_in

let remote_arg =
  let doc =
    "Send this command to a running mdhd daemon at Unix socket $(docv) \
     instead of executing locally. The daemon's shared caches and tuning \
     database serve the request; output matches the local command. See \
     docs/SERVING.md for the protocol."
  in
  Arg.(value & opt (some string) None & info [ "remote" ] ~doc ~docv:"SOCK")

(* one request, one reply; protocol-level failures (shed, bad request,
   handler error) die with the daemon's stable error code so scripts can
   distinguish overload from misuse *)
let remote_call ~socket ~metrics ~op fields =
  match Client.request ~metrics ~socket ~op fields with
  | Error e -> or_die (Error e)
  | Ok r when not r.Client.ok ->
    let code = Option.value ~default:"error" r.Client.code in
    let msg = Option.value ~default:"request failed" r.Client.error in
    let hint =
      match r.Client.retry_after_s with
      | Some s -> Printf.sprintf " (retry after %.2gs)" s
      | None -> ""
    in
    or_die (Error (Printf.sprintf "mdhd: %s: %s%s" code msg hint))
  | Ok r -> r

let remote_result (r : Client.reply) =
  match r.Client.result with
  | Some body -> body
  | None -> or_die (Error "mdhd: malformed reply (no result object)")

let rstr body name =
  match Jin.get_string body name with
  | Some s -> s
  | None -> or_die (Error (Printf.sprintf "mdhd: reply is missing %S" name))

let rnum body name =
  match Jin.get_float body name with
  | Some f -> f
  | None -> or_die (Error (Printf.sprintf "mdhd: reply is missing %S" name))

let rint body name = int_of_float (Float.round (rnum body name))

(* --- arguments --- *)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let device_arg =
  Arg.(value & opt string "cpu" & info [ "device"; "d" ] ~docv:"gpu|cpu")

let input_arg =
  Arg.(value & opt string "1" & info [ "input"; "i" ] ~docv:"1|2|test")

let budget_arg = Arg.(value & opt int 400 & info [ "budget"; "b" ] ~docv:"EVALS")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED")
let parallel_arg = Arg.(value & flag & info [ "parallel"; "p" ])

let chains_arg =
  let doc =
    "Number of independent annealing chains (seeded SEED, SEED+1, ...) the \
     evaluation budget is split across; with --parallel they run on \
     separate domains. The chain count, not the pool, determines the \
     result."
  in
  Arg.(value & opt int 1 & info [ "chains" ] ~doc ~docv:"K")

let strategy_arg =
  let strategies =
    [ ("auto", Mdh_atf.Tuner.Auto); ("exhaustive", Mdh_atf.Tuner.Exhaustive);
      ("random", Mdh_atf.Tuner.Random); ("anneal", Mdh_atf.Tuner.Anneal) ]
  in
  let doc =
    "Search strategy: $(b,auto) (exhaustive when the space fits the budget, \
     annealing otherwise), $(b,exhaustive), $(b,random) or $(b,anneal). \
     Deadline suspension and $(b,--resume) apply to annealing strategies; \
     batch strategies stop at the deadline with their partial best."
  in
  Arg.(
    value
    & opt (enum strategies) Mdh_atf.Tuner.Auto
    & info [ "strategy" ] ~doc ~docv:"NAME")

let deadline_arg =
  let doc =
    "Wall-clock budget for the search, in seconds. An annealing search \
     that exceeds it suspends to a crash-safe checkpoint and exits with \
     code 3; rerunning with $(b,--resume) continues it bit-identically."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc ~docv:"SECS")

let checkpoint_arg =
  let doc =
    "Path of the tuning checkpoint file (default: derived from the tuning \
     request, next to the tuning database)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~doc ~docv:"PATH")

let checkpoint_every_arg =
  let doc = "Evaluations between checkpoint writes, per annealing chain." in
  Arg.(value & opt int 64 & info [ "checkpoint-every" ] ~doc ~docv:"EVALS")

let resume_arg =
  let doc =
    "Continue a previously suspended (or killed) search from its \
     checkpoint. The resumed search replays the exact random draw \
     sequence, so the final schedule is bit-identical to an uninterrupted \
     run; without a matching checkpoint the search simply starts fresh."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let inject_arg =
  let doc =
    "Arm deterministic fault injection for this run (overrides \
     $(b,\\$MDH_FAULTS)). " ^ Mdh_fault.Fault.grammar
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~doc ~docv:"SPEC")

(* MDH_FAULTS is armed in the driver entry point for every command;
   --inject replaces it for one invocation *)
let setup_faults ~inject =
  match inject with
  | None -> ()
  | Some spec -> (
    match Mdh_fault.Fault.configure spec with
    | Ok () -> ()
    | Error msg -> or_die (Error ("--inject: " ^ msg)))

let no_cache_arg =
  let doc =
    "Disable both the persistent tuning database and the in-memory \
     cost-model cache: recompute every search from scratch and record \
     nothing."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let tuning_db_arg =
  let doc =
    "Path of the persistent tuning database (default: $(b,\\$MDH_TUNING_DB) \
     or $(b,~/.cache/mdh/tuning.db)). Warm runs recall tuned schedules \
     from it instead of searching."
  in
  Arg.(value & opt (some string) None & info [ "tuning-db" ] ~doc ~docv:"PATH")

let trace_arg =
  let doc =
    "Record hierarchical spans of the tune/search/execute pipeline and \
     write them to $(docv) as Chrome trace_event JSON (open in \
     chrome://tracing or https://ui.perfetto.dev). Tracing never changes \
     results: schedules and outputs are bit-identical with it on or off."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let metrics_arg =
  let doc =
    "After the command, print the observability metrics summary (cost-model \
     cache hits/misses, search evaluations, tuning-db traffic, pool worker \
     utilization) and, when tracing, a per-span timing table. The report \
     goes to stderr (or $(b,--metrics-out)) so it never interleaves with \
     machine-readable stdout."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_out_arg =
  let doc = "Write the $(b,--metrics) report to $(docv) instead of stderr." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")

(* enable span collection before the command body runs; per-run counters
   (cost cache hit/miss) restart from zero so the report covers exactly
   this invocation's workload *)
let setup_obs ~trace =
  if trace <> None then Mdh_obs.Trace.set_enabled true;
  Mdh_atf.Cost_cache.reset_stats ();
  Mdh_lowering.Plan_cache.reset_stats ()

(* the registry dump goes to stderr (or a file), never stdout: several
   commands emit machine-readable stdout (SARIF, profile JSON, digests)
   that must stay bit-identical with --metrics on or off *)
let emit_metrics ~metrics ~metrics_out parts =
  if metrics then begin
    let body = String.concat "" (List.filter (fun s -> s <> "") parts) in
    match metrics_out with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc body)
    | None ->
      prerr_string body;
      flush stderr
  end

(* remote --metrics/--metrics-out: the daemon piggybacks its whole
   registry on the reply envelope (one-line JSON under "metrics", see
   Protocol) and the client writes it where the local report would go *)
let emit_remote_metrics ~metrics ~metrics_out (r : Client.reply) =
  if metrics || metrics_out <> None then
    match r.Client.metrics with
    | Some m ->
      emit_metrics ~metrics:true ~metrics_out [ Protocol.render m ^ "\n" ]
    | None -> ()

let want_remote_metrics ~metrics ~metrics_out = metrics || metrics_out <> None

let finish_obs ~trace ~metrics ~metrics_out =
  emit_metrics ~metrics ~metrics_out
    [ Mdh_obs.Metrics.summary (); Mdh_obs.Trace.summary () ];
  match trace with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path Mdh_obs.Trace.write_chrome;
    Printf.eprintf "trace written to %s\n%!" path

(* the tuner consults the ambient database (and the cost cache) from every
   internal call site — baselines included — so the flags configure both
   process-wide before the command body runs *)
let setup_cache ~no_cache ~tuning_db =
  if no_cache then begin
    Mdh_atf.Cost_cache.set_enabled false;
    Mdh_lowering.Plan_cache.set_enabled false;
    Mdh_atf.Tuning_db.set_ambient None
  end
  else
    let db =
      match tuning_db with
      | Some path -> Mdh_atf.Tuning_db.open_db path
      | None -> (
        match Mdh_atf.Tuning_db.default_path () with
        | Some path -> Mdh_atf.Tuning_db.open_db path
        | None ->
          (* no writable cache location (no XDG_CACHE_HOME/HOME): tune
             in memory rather than littering the cwd *)
          Mdh_atf.Tuning_db.in_memory ())
    in
    Mdh_atf.Tuning_db.set_ambient (Some db)

(* --- commands --- *)

let list_cmd =
  let doc = "List the workload catalogue (Figure 3 plus MBBS)." in
  let run () =
    List.iter
      (fun (w : W.t) ->
        Printf.printf "%-12s %-18s inputs: %s\n" w.W.wl_name w.W.domain
          (String.concat ", " (List.map fst w.W.paper_inputs)))
      Mdh_workloads.Catalog.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let devices_cmd =
  let doc = "Describe the modelled devices." in
  let run () =
    Format.printf "%a@.%a@." Device.pp Device.a100_like Device.pp Device.xeon6140_like
  in
  Cmd.v (Cmd.info "devices" ~doc) Term.(const run $ const ())

let show_cmd =
  let doc = "Print a workload's directive, its transformation to the MDH DSL \
             representation, and its Figure 3 characteristics. With --plan, \
             also print the auto-tuned execution plan per device." in
  let plan_arg = Arg.(value & flag & info [ "plan" ]) in
  let run name input plan =
    let w = or_die (find_workload name) in
    let params = or_die (params_of w input) in
    let dir = w.W.make params in
    Format.printf "%a@.@." Mdh_directive.Directive.pp dir;
    let md = Mdh_directive.Transform.to_md_hom_exn dir in
    Format.printf "%a@." Mdh_core.Md_hom.pp md;
    let c = Mdh_core.Md_hom.characteristics md in
    Printf.printf
      "\ncharacteristics: %dD iteration space, %d reduction dim(s), accesses %s\n"
      c.Mdh_core.Md_hom.iter_space_rank c.Mdh_core.Md_hom.n_reduction_dims
      (match c.Mdh_core.Md_hom.injective_accesses with
      | Some true -> "injective"
      | Some false -> "non-injective"
      | None -> "undecided");
    if plan then
      List.iter
        (fun dev ->
          match Mdh_atf.Tuner.tune md dev Cost.tuned_codegen with
          | Error e -> or_die (Error e)
          | Ok t -> (
            match Mdh_lowering.Plan_cache.build md dev t.Mdh_atf.Tuner.schedule with
            | Error e -> or_die (Error e)
            | Ok plan ->
              Format.printf "@.execution plan on %s (parallelism %d):@.%a@."
                dev.Device.device_name
                (Mdh_lowering.Plan.parallelism plan)
                Mdh_lowering.Plan.pp plan))
        [ Device.a100_like; Device.xeon6140_like ]
  in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ workload_arg $ input_arg $ plan_arg)

let no_rewrite_arg =
  let doc =
    "Skip the verified equality-saturation pass: tune/optimize the \
     computation exactly as written, with no expression or plan rewrites."
  in
  Arg.(value & flag & info [ "no-rewrite" ] ~doc)

let tune_cmd =
  let doc = "Auto-tune a workload's schedule with ATF and report the result. \
             By default the verified rewrite pass saturates the computation \
             first and the search runs over the pruned space; disable with \
             --no-rewrite." in
  let remote_tune ~socket name device input budget seed chains strategy
      deadline resume no_rewrite metrics metrics_out =
    let strategy_name =
      match strategy with
      | Mdh_atf.Tuner.Auto -> "auto"
      | Mdh_atf.Tuner.Exhaustive -> "exhaustive"
      | Mdh_atf.Tuner.Random -> "random"
      | Mdh_atf.Tuner.Anneal -> "anneal"
    in
    let fields =
      [ ("workload", Js.quote name); ("device", Js.quote device);
        ("input", Js.quote input); ("budget", string_of_int budget);
        ("seed", string_of_int seed); ("chains", string_of_int chains);
        ("strategy", Js.quote strategy_name) ]
      @ (if no_rewrite then [ ("no_rewrite", "true") ] else [])
      @ (if resume then [ ("resume", "true") ] else [])
      @
      match deadline with
      | Some d -> [ ("deadline_s", Protocol.number d) ]
      | None -> []
    in
    let r =
      remote_call ~socket
        ~metrics:(want_remote_metrics ~metrics ~metrics_out)
        ~op:"tune" fields
    in
    let body = remote_result r in
    emit_remote_metrics ~metrics ~metrics_out r;
    match rstr body "status" with
    | "suspended" ->
      Printf.eprintf
        "mdhc: tune: the daemon suspended the search after %d evaluations \
         (token %s)\nmdhc: rerun with --resume to continue it\n%!"
        (rint body "evaluations") (rstr body "token");
      exit 3
    | _ ->
      (* reprint through the local pretty-printers so the output is
         byte-identical to a local `mdhc tune` of the same request *)
      let sched = or_die (Schedule.of_string (rstr body "schedule")) in
      Format.printf "best schedule: %a@." Schedule.pp sched;
      Printf.printf "estimated time: %s\n"
        (Format.asprintf "%.6gs" (rnum body "estimated_s"));
      if Jin.get_bool body "from_db" = Some true then
        Printf.printf "recalled from tuning db (0 evaluations)\n"
      else Printf.printf "evaluations: %d\n" (rint body "evaluations")
  in
  let run name device input budget seed chains strategy deadline checkpoint
      checkpoint_every resume parallel no_cache no_rewrite tuning_db inject
      trace metrics metrics_out remote =
    match remote with
    | Some socket ->
      remote_tune ~socket name device input budget seed chains strategy
        deadline resume no_rewrite metrics metrics_out
    | None ->
    setup_faults ~inject;
    setup_cache ~no_cache ~tuning_db;
    setup_obs ~trace;
    let w = or_die (find_workload name) in
    let dev = or_die (device_of_string device) in
    let params = or_die (params_of w input) in
    let md = W.to_md_hom w params in
    let tune pool =
      Mdh_atf.Tuner.tune_resumable ~strategy ~budget ~seed ~chains ?pool
        ?deadline_s:deadline ?checkpoint ~checkpoint_every ~resume
        ~saturate:(not no_rewrite) md dev Cost.tuned_codegen
    in
    let result, elapsed =
      Mdh_support.Util.time_it (fun () ->
          if parallel then Mdh_runtime.Pool.with_pool (fun pool -> tune (Some pool))
          else tune None)
    in
    match result with
    | Error msg -> or_die (Error msg)
    | Ok (Mdh_atf.Tuner.Suspended { checkpoint; evaluations }) ->
      finish_obs ~trace ~metrics ~metrics_out;
      Printf.eprintf
        "mdhc: tune: deadline reached after %d evaluations; progress saved \
         to %s\nmdhc: rerun with --resume to continue the search\n%!"
        evaluations checkpoint;
      exit 3
    | Ok (Mdh_atf.Tuner.Tuned t) ->
      Format.printf "best schedule: %a@." Schedule.pp t.Mdh_atf.Tuner.schedule;
      Printf.printf "estimated time: %s\n"
        (Format.asprintf "%.6gs" t.Mdh_atf.Tuner.estimated_s);
      if t.Mdh_atf.Tuner.from_db then
        Printf.printf "recalled from tuning db (0 evaluations) in %.3gs\n" elapsed
      else begin
        Printf.printf "evaluations: %d, improvements: %d (%.3gs wall)\n"
          t.Mdh_atf.Tuner.search.Mdh_atf.Search.evaluations
          (List.length t.Mdh_atf.Tuner.search.Mdh_atf.Search.trace)
          elapsed;
        List.iter
          (fun (eval, cost) -> Printf.printf "  #%-5d -> %.6gs\n" eval cost)
          t.Mdh_atf.Tuner.search.Mdh_atf.Search.trace;
        let stats = Mdh_atf.Cost_cache.stats () in
        Printf.printf "cost model: %d evaluations, %d cache hits\n"
          stats.Mdh_atf.Cost_cache.n_misses stats.Mdh_atf.Cost_cache.n_hits
      end;
      finish_obs ~trace ~metrics ~metrics_out
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(
      const run $ workload_arg $ device_arg $ input_arg $ budget_arg $ seed_arg
      $ chains_arg $ strategy_arg $ deadline_arg $ checkpoint_arg
      $ checkpoint_every_arg $ resume_arg $ parallel_arg $ no_cache_arg
      $ no_rewrite_arg $ tuning_db_arg $ inject_arg $ trace_arg $ metrics_arg
      $ metrics_out_arg $ remote_arg)

let compare_cmd =
  let doc = "Compare every system of the Figure 4 line-up on one workload." in
  let run name device input no_cache tuning_db inject trace metrics metrics_out =
    setup_faults ~inject;
    setup_cache ~no_cache ~tuning_db;
    setup_obs ~trace;
    let w = or_die (find_workload name) in
    let dev = or_die (device_of_string device) in
    let params = or_die (params_of w input) in
    let md = W.to_md_hom w params in
    let systems =
      ("MDH", fun () -> Mdh_baselines.Registry.mdh.Common.compile ~tuned:true md dev)
      :: List.map
           (fun (sys : Common.system) ->
             (sys.Common.sys_name, fun () -> sys.Common.compile ~tuned:true md dev))
           (Mdh_baselines.Registry.baselines_for dev)
    in
    (* baseline failures are expected paper results, but the MDH system
       itself failing to compile means the comparison is meaningless:
       report it through the exit code *)
    let mdh_failed = ref false in
    List.iter
      (fun (name, compile) ->
        match compile () with
        | Ok o ->
          Format.printf "%-10s %-14s %.6gs  (%a)@." name o.Common.system
            (Common.seconds o) Schedule.pp o.Common.schedule
        | Error f ->
          if name = "MDH" then mdh_failed := true;
          Format.printf "%-10s %a@." name Common.pp_failure f)
      systems;
    finish_obs ~trace ~metrics ~metrics_out;
    if !mdh_failed then or_die (Error "the MDH system failed on this workload")
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ workload_arg $ device_arg $ input_arg $ no_cache_arg
      $ tuning_db_arg $ inject_arg $ trace_arg $ metrics_arg $ metrics_out_arg)

let codegen_cmd =
  let doc = "Generate kernel source (CUDA for the GPU device, OpenCL for the \
             CPU device) from a workload's auto-tuned schedule. With --host, \
             emit the complete driver program(s) instead." in
  let host_arg = Arg.(value & flag & info [ "host" ]) in
  let openmp_arg = Arg.(value & flag & info [ "openmp" ]) in
  let run name device input budget host openmp =
    let w = or_die (find_workload name) in
    let dev = or_die (device_of_string device) in
    let params = or_die (params_of w input) in
    let md = W.to_md_hom w params in
    if openmp then begin
      (match Mdh_codegen.Openmp_c.generate md with
      | Ok src -> print_string src
      | Error e -> or_die (Error (Format.asprintf "%a" Mdh_codegen.Kernel.pp_error e)));
      exit 0
    end;
    let schedule =
      match Mdh_atf.Tuner.tune ~budget md dev Cost.tuned_codegen with
      | Ok t -> t.Mdh_atf.Tuner.schedule
      | Error e -> or_die (Error e)
    in
    let dialect =
      match dev.Device.kind with
      | Device.Gpu -> Mdh_codegen.Kernel.cuda
      | Device.Cpu -> Mdh_codegen.Kernel.opencl
    in
    if host then
      match Mdh_codegen.Host.generate dialect md dev schedule with
      | Ok bundle ->
        if bundle.Mdh_codegen.Host.kernel_file <> bundle.Mdh_codegen.Host.host_file then begin
          Printf.printf "/* ===== %s ===== */\n" bundle.Mdh_codegen.Host.kernel_file;
          print_string bundle.Mdh_codegen.Host.kernel_source;
          Printf.printf "\n/* ===== %s ===== */\n" bundle.Mdh_codegen.Host.host_file
        end;
        print_string bundle.Mdh_codegen.Host.host_source
      | Error e -> or_die (Error (Format.asprintf "%a" Mdh_codegen.Kernel.pp_error e))
    else
      match Mdh_codegen.Kernel.generate dialect md dev schedule with
      | Ok src -> print_string src
      | Error e -> or_die (Error (Format.asprintf "%a" Mdh_codegen.Kernel.pp_error e))
  in
  Cmd.v (Cmd.info "codegen" ~doc)
    Term.(
      const run $ workload_arg $ device_arg $ input_arg $ budget_arg $ host_arg
      $ openmp_arg)

let compile_cmd =
  let doc = "Parse a textual #pragma mdh source file, validate it, and print \
             the transformed MDH representation. Parameters are given as \
             NAME=VALUE." in
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let params_arg =
    Arg.(value & opt_all (pair ~sep:'=' string int) [] & info [ "param"; "P" ] ~docv:"NAME=VALUE")
  in
  let run file params =
    let src = In_channel.with_open_text file In_channel.input_all in
    match Mdh_pragma.Parser.parse ~name:(Filename.remove_extension (Filename.basename file)) ~params src with
    | Error e -> or_die (Error (Mdh_pragma.Parser.error_to_string e))
    | Ok dir -> (
      match Mdh_directive.Transform.to_md_hom dir with
      | Error e -> or_die (Error (Mdh_directive.Validate.error_to_string e))
      | Ok md ->
        Format.printf "%a@.@.%a@." Mdh_directive.Directive.pp dir Mdh_core.Md_hom.pp md)
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ file_arg $ params_arg)

let run_cmd =
  let doc = "Execute a workload (test sizes by default) on the host and check \
             the result against the reference semantics." in
  let backend_arg =
    let doc =
      "Execution backend: $(b,auto) (fastpath, then plan-compiled \
       specializer, then generic walker), $(b,interp) (generic box walker \
       only), $(b,special) (plan-compiled specializer, error if the \
       workload is not specializable), or $(b,cc) (generate the OpenMP C, \
       compile with gcc -O3 -fopenmp, and execute the binary)."
    in
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("interp", `Interp); ("special", `Special); ("cc", `Cc) ]) `Auto
      & info [ "backend" ] ~doc ~docv:"auto|interp|special|cc")
  in
  let no_specialize_arg =
    let doc = "Disable the plan-compiled specializer (auto backend only)." in
    Arg.(value & flag & info [ "no-specialize" ] ~doc)
  in
  let remote_run ~socket name input seed metrics metrics_out =
    let r =
      remote_call ~socket
        ~metrics:(want_remote_metrics ~metrics ~metrics_out)
        ~op:"exec"
        [ ("workload", Js.quote name); ("input", Js.quote input);
          ("seed", string_of_int seed) ]
    in
    let body = remote_result r in
    emit_remote_metrics ~metrics ~metrics_out r;
    Printf.printf "executed %s in %.4fs (remote)\n" (rstr body "workload")
      (rnum body "elapsed_s");
    match Jin.get_bool body "checked" with
    | Some true -> print_endline "result check: OK"
    | Some false ->
      (* the daemon replies exec_mismatch before this can happen, but a
         reply is data — never trust it blindly *)
      print_endline "result check: MISMATCH";
      exit 1
    | None -> print_endline "no independent oracle for this workload"
  in
  let run name input seed parallel backend no_specialize trace metrics
      metrics_out remote =
    (match remote with
    | Some socket ->
      if backend <> `Auto then
        or_die (Error "--backend is not available with --remote");
      remote_run ~socket name input seed metrics metrics_out;
      exit 0
    | None -> ());
    setup_obs ~trace;
    let w = or_die (find_workload name) in
    let params = or_die (params_of w input) in
    let md = W.to_md_hom w params in
    let env = w.W.gen params ~seed in
    let parallel_sched () =
      { (Schedule.sequential md) with
        Schedule.parallel_dims = Mdh_lowering.Lower.parallelisable_dims md }
    in
    let in_pool f =
      Mdh_runtime.Pool.with_pool (fun pool ->
          let sched =
            if parallel then parallel_sched () else Schedule.sequential md
          in
          Mdh_support.Util.time_it (fun () -> f pool sched))
    in
    let (result_env, elapsed), mode =
      match backend with
      | `Auto ->
        ( in_pool (fun pool sched ->
              or_die
                (Mdh_runtime.Exec.run ~specialize:(not no_specialize) pool md
                   sched env)),
          if parallel then "parallel" else "sequential" )
      | `Interp ->
        ( in_pool (fun pool sched ->
              or_die
                (Mdh_runtime.Exec.run ~fastpath:false ~specialize:false pool
                   md sched env)),
          (if parallel then "parallel" else "sequential") ^ " interp" )
      | `Special ->
        ( in_pool (fun pool sched ->
              let dev = Mdh_runtime.Exec.host_device pool in
              let plan =
                or_die (Mdh_lowering.Plan_cache.build md dev sched)
              in
              match Mdh_runtime.Specializer.try_run pool plan md env with
              | Some env' -> env'
              | None ->
                or_die
                  (Error
                     (match Mdh_runtime.Specializer.supported plan md with
                     | Error e -> "specializer: " ^ e
                     | Ok () -> "specializer: input buffers do not match"))),
          (if parallel then "parallel" else "sequential") ^ " specializer" )
      | `Cc ->
        ( Mdh_support.Util.time_it (fun () ->
              or_die (Mdh_codegen.Cc.execute md env)),
          "compiled OpenMP C" )
    in
    Printf.printf "executed %s in %.4fs (%s)\n" md.Mdh_core.Md_hom.hom_name elapsed
      mode;
    (match w.W.reference with
    | None -> print_endline "no independent oracle for this workload"
    | Some oracle ->
      let expected = oracle params env in
      let ok =
        List.for_all
          (fun (o : Mdh_core.Md_hom.output) ->
            Mdh_tensor.Dense.approx_equal ~rel:1e-3 ~abs:1e-4
              (Buffer.data (Buffer.env_find result_env o.Mdh_core.Md_hom.out_name))
              (Buffer.data (Buffer.env_find expected o.Mdh_core.Md_hom.out_name)))
          md.Mdh_core.Md_hom.outputs
      in
      print_endline (if ok then "result check: OK" else "result check: MISMATCH");
      if not ok then begin
        finish_obs ~trace ~metrics ~metrics_out;
        exit 1
      end);
    finish_obs ~trace ~metrics ~metrics_out
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ workload_arg
      $ Arg.(value & opt string "test" & info [ "input"; "i" ])
      $ seed_arg $ parallel_arg $ backend_arg $ no_specialize_arg $ trace_arg
      $ metrics_arg $ metrics_out_arg $ remote_arg)

let check_cmd =
  let doc =
    "Run the multi-pass static analyzer: directive validation with \
     accumulated diagnostics (stable MDH0xx codes), combine-operator \
     property verification, and access/locality lints. Targets the whole \
     workload catalogue (no arguments), one workload, or a #pragma mdh \
     source file (--file). Exit status is 1 when any error is reported — \
     or any warning under --strict; hints never fail the check."
  in
  let workload_opt_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let file_arg =
    let doc = "Analyze a textual #pragma mdh source file instead of a catalogue workload." in
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~doc ~docv:"FILE")
  in
  let params_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string int) []
      & info [ "param"; "P" ] ~docv:"NAME=VALUE")
  in
  let json_arg =
    let doc = "Emit the diagnostics as SARIF 2.1.0 JSON on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let strict_arg =
    let doc = "Treat warnings as fatal: exit 1 when any warning is reported." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let remote_check ~socket workload strict metrics metrics_out =
    let fields =
      match workload with
      | Some name -> [ ("workload", Js.quote name) ]
      | None -> []
    in
    let r =
      remote_call ~socket
        ~metrics:(want_remote_metrics ~metrics ~metrics_out)
        ~op:"check" fields
    in
    let body = remote_result r in
    emit_remote_metrics ~metrics ~metrics_out r;
    (match Jin.member "diagnostics" body with
    | Some (Jin.Arr ds) ->
      List.iter
        (fun d ->
          let f n = Option.value ~default:"?" (Jin.get_string d n) in
          Printf.printf "%s: %s[%s]: %s\n" (f "target") (f "severity")
            (f "code") (f "message"))
        ds
    | _ -> ());
    let errors = rint body "errors" and warnings = rint body "warnings" in
    Printf.printf
      "checked %d target(s): %d error(s), %d warning(s), %d hint(s)\n"
      (rint body "targets") errors warnings (rint body "hints");
    exit (if errors > 0 || (strict && warnings > 0) then 1 else 0)
  in
  let run workload file params json strict metrics metrics_out remote =
    (match remote with
    | Some socket ->
      if file <> None then or_die (Error "--file is not available with --remote");
      if json then or_die (Error "--json is not available with --remote");
      remote_check ~socket workload strict metrics metrics_out
    | None -> ());
    let targets =
      match (file, workload) with
      | Some f, _ ->
        let src = In_channel.with_open_text f In_channel.input_all in
        let name = Filename.remove_extension (Filename.basename f) in
        [ (f, Mdh_analysis.Analyze.pragma ~name ~params src) ]
      | None, Some name ->
        let w = or_die (find_workload name) in
        [ ( "workload:" ^ w.W.wl_name,
            Mdh_analysis.Analyze.directive (w.W.make w.W.test_params) ) ]
      | None, None ->
        List.map
          (fun (w : W.t) ->
            ( "workload:" ^ w.W.wl_name,
              Mdh_analysis.Analyze.directive (w.W.make w.W.test_params) ))
          Mdh_workloads.Catalog.all
    in
    let all = List.concat_map snd targets in
    if json then
      print_endline (Mdh_analysis.Diagnostic.sarif ~tool_version:version targets)
    else begin
      List.iter
        (fun (uri, ds) ->
          if ds <> [] then begin
            Printf.printf "%s:\n" uri;
            print_endline (Mdh_analysis.Diagnostic.render ~file:uri ds)
          end)
        targets;
      Printf.printf "checked %d target(s): %d error(s), %d warning(s), %d hint(s)\n"
        (List.length targets)
        (Mdh_analysis.Diagnostic.error_count all)
        (Mdh_analysis.Diagnostic.warning_count all)
        (Mdh_analysis.Diagnostic.hint_count all)
    end;
    emit_metrics ~metrics ~metrics_out [ Mdh_obs.Metrics.summary () ];
    exit (Mdh_analysis.Diagnostic.exit_code ~strict all)
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ workload_opt_arg $ file_arg $ params_arg $ json_arg
      $ strict_arg $ metrics_arg $ metrics_out_arg $ remote_arg)

let optimize_cmd =
  let doc =
    "Run the verified equality-saturation pass over a workload: saturate \
     the combine bodies (CSE, constant folding, algebraic identities, \
     strength reduction — all bit-preserving) and the lowered plan \
     (unit-level elimination, Seq fusion, tile simplification, and \
     tree-reduce reassociation where the property verifier proved the \
     operator associative), then report every applied rule with its \
     justification and the cost-model delta. Rules are never justified by \
     declared-but-unverified operator annotations."
  in
  let json_arg =
    let doc = "Emit the report as JSON (schema mdh-optimize/1) on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let remote_optimize ~socket name device input metrics metrics_out =
    let r =
      remote_call ~socket
        ~metrics:(want_remote_metrics ~metrics ~metrics_out)
        ~op:"optimize"
        [ ("workload", Js.quote name); ("device", Js.quote device);
          ("input", Js.quote input) ]
    in
    let body = remote_result r in
    emit_remote_metrics ~metrics ~metrics_out r;
    Printf.printf "optimize %s on %s: %.6gs -> %.6gs (digest %s -> %s)\n"
      (String.lowercase_ascii name)
      device (rnum body "raw_seconds") (rnum body "seconds")
      (rstr body "raw_digest") (rstr body "digest");
    match Jin.member "applied" body with
    | Some (Jin.Arr rules) ->
      List.iter
        (fun rule ->
          let f n = Option.value ~default:"?" (Jin.get_string rule n) in
          Printf.printf "  [%s] %s @ %s (%s)\n" (f "tier") (f "rule")
            (f "site") (f "justification"))
        rules
    | _ -> ()
  in
  let run name device input no_rewrite json metrics metrics_out remote =
    (match remote with
    | Some socket ->
      if no_rewrite then
        or_die (Error "--no-rewrite is not available with --remote");
      if json then or_die (Error "--json is not available with --remote");
      remote_optimize ~socket name device input metrics metrics_out;
      exit 0
    | None -> ());
    let w = or_die (find_workload name) in
    let dev = or_die (device_of_string device) in
    let params = or_die (params_of w input) in
    let md = W.to_md_hom w params in
    let wl = String.lowercase_ascii w.W.wl_name in
    let cg = Cost.tuned_codegen in
    let sched = Mdh_lowering.Lower.mdh_default md dev in
    Mdh_lowering.Plan_cache.reset_stats ();
    let report =
      if no_rewrite then
        (* escape hatch: the raw plan, untouched — same report shape so
           --json consumers need no special case *)
        let plan = or_die (Mdh_lowering.Plan_cache.build md dev sched) in
        let seconds = or_die (Cost.seconds md dev cg sched) in
        { Mdh_rewrite.Rewrite.r_md = md; r_raw_plan = plan; r_plan = plan;
          r_raw_seconds = seconds; r_seconds = seconds; r_applied = [] }
      else
        let oracle = Mdh_analysis.Opcheck_oracle.oracle () in
        or_die (Mdh_rewrite.Rewrite.optimize ~oracle md dev cg sched)
    in
    if json then
      print_endline
        (Mdh_rewrite.Rewrite.report_json ~name:wl
           ~device:dev.Device.device_name report)
    else
      Format.printf "%a@."
        (Mdh_rewrite.Rewrite.pp_report ~name:wl
           ~device:dev.Device.device_name)
        report;
    emit_metrics ~metrics ~metrics_out [ Mdh_obs.Metrics.summary () ]
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const run $ workload_arg $ device_arg $ input_arg $ no_rewrite_arg
      $ json_arg $ metrics_arg $ metrics_out_arg $ remote_arg)

let plan_cmd =
  let doc =
    "Print the execution-plan IR — the single structure the executor, cost \
     model, simulator and code generators all consume — for one workload (or \
     the whole catalogue) on one device (or both). Schedules default to the \
     deterministic per-device lowering default, so the output is stable; \
     $(b,--schedule) plans an explicit schedule instead, and $(b,--digest) \
     prints one structural fingerprint per line (pinned by the repository's \
     plan-consistency check)."
  in
  let workload_opt_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let device_opt_arg =
    Arg.(value & opt (some string) None & info [ "device"; "d" ] ~docv:"gpu|cpu")
  in
  let schedule_arg =
    let doc =
      "Plan this explicit schedule (the $(b,tiles=..)$(b, parallel=[..]) \
       $(b,layers=[..]) syntax that mdhc tune prints) instead of the \
       per-device default."
    in
    Arg.(value & opt (some string) None & info [ "schedule" ] ~doc ~docv:"SCHED")
  in
  let digest_arg =
    let doc = "Print only $(i,workload device digest) lines." in
    Arg.(value & flag & info [ "digest" ] ~doc)
  in
  let remote_plan ~socket workload device input digest metrics metrics_out =
    let name =
      match workload with
      | Some name -> name
      | None -> or_die (Error "--remote plan needs an explicit workload")
    in
    let tags = match device with Some d -> [ d ] | None -> [ "cpu"; "gpu" ] in
    List.iteri
      (fun i tag ->
        let r =
          remote_call ~socket
            ~metrics:(want_remote_metrics ~metrics ~metrics_out)
            ~op:"plan"
            [ ("workload", Js.quote name); ("device", Js.quote tag);
              ("input", Js.quote input) ]
        in
        let body = remote_result r in
        if i = 0 then emit_remote_metrics ~metrics ~metrics_out r;
        if digest then
          Printf.printf "%-12s %-4s %s\n" (String.lowercase_ascii name) tag
            (rstr body "digest")
        else
          Format.printf "%s on %s (parallelism %d, digest %s):@.%s@.@."
            (String.lowercase_ascii name)
            (rstr body "device") (rint body "parallelism") (rstr body "digest")
            (rstr body "plan"))
      tags
  in
  let run workload device input schedule digest no_cache metrics metrics_out
      remote =
    match remote with
    | Some socket ->
      if schedule <> None then
        or_die (Error "--schedule is not available with --remote");
      remote_plan ~socket workload device input digest metrics metrics_out
    | None ->
    if no_cache then Mdh_lowering.Plan_cache.set_enabled false;
    Mdh_lowering.Plan_cache.reset_stats ();
    let workloads =
      match workload with
      | Some name -> [ or_die (find_workload name) ]
      | None -> Mdh_workloads.Catalog.all
    in
    let devices =
      match device with
      | Some d -> [ or_die (device_of_string d) ]
      | None -> [ Device.xeon6140_like; Device.a100_like ]
    in
    List.iter
      (fun (w : W.t) ->
        let params = or_die (params_of w input) in
        let md = W.to_md_hom w params in
        List.iter
          (fun (dev : Device.t) ->
            let sched =
              match schedule with
              | Some s -> or_die (Schedule.of_string s)
              | None -> Mdh_lowering.Lower.mdh_default md dev
            in
            match Mdh_lowering.Plan_cache.build md dev sched with
            | Error e ->
              or_die
                (Error
                   (Printf.sprintf "%s on %s: %s"
                      (String.lowercase_ascii w.W.wl_name)
                      dev.Device.device_name e))
            | Ok plan ->
              let tag =
                match dev.Device.kind with Device.Gpu -> "gpu" | Device.Cpu -> "cpu"
              in
              if digest then
                Printf.printf "%-12s %-4s %s\n"
                  (String.lowercase_ascii w.W.wl_name)
                  tag
                  (Mdh_lowering.Plan.digest plan)
              else
                Format.printf "%s on %s (parallelism %d, digest %s):@.%a@.@."
                  (String.lowercase_ascii w.W.wl_name)
                  dev.Device.device_name
                  (Mdh_lowering.Plan.parallelism plan)
                  (Mdh_lowering.Plan.digest plan)
                  Mdh_lowering.Plan.pp plan)
          devices)
      workloads;
    emit_metrics ~metrics ~metrics_out [ Mdh_obs.Metrics.summary () ]
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(
      const run $ workload_opt_arg $ device_opt_arg
      $ Arg.(value & opt string "test" & info [ "input"; "i" ] ~docv:"1|2|test")
      $ schedule_arg $ digest_arg $ no_cache_arg $ metrics_arg
      $ metrics_out_arg $ remote_arg)

let profile_cmd =
  let doc =
    "Execute a workload with the plan-level profiler enabled and report \
     where the wall time went: one row per plan level (addressed by its \
     position in the plan tree, outermost first), the point computation \
     and the write-back, each with its measured share of the enclosing \
     execution span next to the cost model's attribution for the same \
     level — so systematic model/machine disagreements are visible per \
     level, not just in the total. Backend phases (specializer bind, \
     compile and run; walker) are listed separately. $(b,--json) emits the \
     mdh-profile/1 document instead; $(b,--flame) additionally writes \
     collapsed stacks (one level chain per line, self time in \
     microseconds) for flamegraph.pl / speedscope."
  in
  let backend_arg =
    let doc =
      "Execution backend to profile: $(b,auto) (plan-compiled specializer \
       when the workload supports it, generic walker otherwise), \
       $(b,special) (error if not specializable) or $(b,interp). The \
       fastpath is disabled so the plan levels actually execute."
    in
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("interp", `Interp); ("special", `Special) ]) `Auto
      & info [ "backend" ] ~doc ~docv:"auto|special|interp")
  in
  let schedule_arg =
    let doc =
      "Profile this explicit schedule (mdhc tune's syntax) instead of the \
       default host schedule (the per-device lowering default restricted \
       to the pool's single layer — the same schedule the plan-execution \
       benchmark times)."
    in
    Arg.(value & opt (some string) None & info [ "schedule" ] ~doc ~docv:"SCHED")
  in
  let repeat_arg =
    let doc = "Number of profiled runs to accumulate (same plan digest)." in
    Arg.(value & opt int 3 & info [ "repeat"; "r" ] ~doc ~docv:"N")
  in
  let json_arg =
    let doc = "Emit the profile as JSON (schema mdh-profile/1) on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let flame_arg =
    let doc =
      "Write the per-level self times as collapsed flamegraph stacks to \
       $(docv) (workload;digest;L0;...;Lk self_microseconds)."
    in
    Arg.(value & opt (some string) None & info [ "flame" ] ~doc ~docv:"FILE")
  in
  let json_escape s =
    let b = Stdlib.Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Stdlib.Buffer.add_string b "\\\""
        | '\\' -> Stdlib.Buffer.add_string b "\\\\"
        | '\n' -> Stdlib.Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Stdlib.Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Stdlib.Buffer.add_char b c)
      s;
    Stdlib.Buffer.contents b
  in
  let run name input schedule backend repeat json flame seed trace metrics
      metrics_out =
    setup_obs ~trace;
    let w = or_die (find_workload name) in
    let params = or_die (params_of w input) in
    let md = W.to_md_hom w params in
    let wl = String.lowercase_ascii w.W.wl_name in
    let repeat = max 1 repeat in
    let env = w.W.gen params ~seed in
    Mdh_obs.Profile.set_enabled true;
    Mdh_runtime.Pool.with_pool @@ fun pool ->
    let dev = Mdh_runtime.Exec.host_device pool in
    let sched =
      match schedule with
      | Some s -> or_die (Schedule.of_string s)
      | None ->
        { (Mdh_lowering.Lower.mdh_default md Device.xeon6140_like) with
          Schedule.used_layers = [ 0 ] }
    in
    let plan = or_die (Mdh_lowering.Plan_cache.build md dev sched) in
    let digest = Mdh_lowering.Plan.digest plan in
    let backend_name =
      match backend with
      | `Special ->
        (match Mdh_runtime.Specializer.supported plan md with
        | Ok () -> "special"
        | Error e -> or_die (Error ("specializer: " ^ e)))
      | `Interp -> "interp"
      | `Auto -> (
        match Mdh_runtime.Specializer.supported plan md with
        | Ok () -> "special"
        | Error _ -> "interp")
    in
    let run_once () =
      if backend_name = "special" then
        match Mdh_runtime.Specializer.try_run pool plan md env with
        | Some _ -> ()
        | None ->
          or_die (Error "specializer: input buffers do not match the plan")
      else
        ignore
          (or_die
             (Mdh_runtime.Exec.run ~fastpath:false ~specialize:false pool md
                sched env))
    in
    let (), wall =
      Mdh_support.Util.time_it (fun () ->
          for _ = 1 to repeat do
            run_once ()
          done)
    in
    let entries = Mdh_obs.Profile.snapshot digest in
    let find p =
      List.find_opt (fun e -> e.Mdh_obs.Profile.path = p) entries
    in
    let exec_s =
      match find "exec" with
      | Some e -> e.Mdh_obs.Profile.total_s
      | None -> 0.0
    in
    let model = Cost.level_attribution plan in
    let model_paths = List.map (fun s -> s.Cost.ls_path) model in
    (* measured cells the model has no counterpart for: write-back,
       walker recombine, post-scan passes — shown with a blank model
       column *)
    let extras =
      List.filter
        (fun e ->
          let p = e.Mdh_obs.Profile.path in
          p <> "exec"
          && not (List.mem p model_paths)
          && not (String.length p > 6 && String.sub p 0 6 = "phase:"))
        entries
    in
    let phases =
      List.filter
        (fun e ->
          let p = e.Mdh_obs.Profile.path in
          String.length p > 6 && String.sub p 0 6 = "phase:")
        entries
    in
    let self_of p =
      match find p with
      | Some e -> (e.Mdh_obs.Profile.count, e.Mdh_obs.Profile.total_s)
      | None -> (0, 0.0)
    in
    let frac s = if exec_s > 0.0 then s /. exec_s else 0.0 in
    (match flame with
    | None -> ()
    | Some path ->
      (* collapsed stacks: plan levels are one nest, so level i's stack
         is the chain L0;..;Li; leaf sits under the full chain and
         unmodelled cells under the root *)
      Out_channel.with_open_text path (fun oc ->
          let clean s =
            String.map (fun c -> if c = ';' || c = '\n' then ',' else c) s
          in
          let chain = ref [ digest; wl ] in
          List.iter
            (fun (s : Cost.level_share) ->
              let frame =
                if s.Cost.ls_path = "leaf" then "leaf"
                else s.Cost.ls_path ^ " " ^ clean s.Cost.ls_label
              in
              chain := frame :: !chain;
              let _, self_s = self_of s.Cost.ls_path in
              let us = int_of_float (Float.round (self_s *. 1e6)) in
              if us > 0 then
                Printf.fprintf oc "%s %d\n"
                  (String.concat ";" (List.rev !chain))
                  us)
            model;
          List.iter
            (fun (e : Mdh_obs.Profile.entry) ->
              let us =
                int_of_float (Float.round (e.Mdh_obs.Profile.total_s *. 1e6))
              in
              if us > 0 then
                Printf.fprintf oc "%s;%s;%s %d\n" wl digest
                  (clean e.Mdh_obs.Profile.path)
                  us)
            extras);
      Printf.eprintf "flamegraph stacks written to %s\n%!" path);
    if json then begin
      let level_json (s : Cost.level_share) =
        let count, self_s = self_of s.Cost.ls_path in
        Printf.sprintf
          "    { \"path\": \"%s\", \"label\": \"%s\", \"count\": %d, \
           \"self_s\": %.9f, \"measured_fraction\": %.6f, \
           \"model_fraction\": %.6f }"
          (json_escape s.Cost.ls_path)
          (json_escape s.Cost.ls_label)
          count self_s (frac self_s) s.Cost.ls_fraction
      in
      let extra_json (e : Mdh_obs.Profile.entry) =
        Printf.sprintf
          "    { \"path\": \"%s\", \"label\": \"%s\", \"count\": %d, \
           \"self_s\": %.9f, \"measured_fraction\": %.6f }"
          (json_escape e.Mdh_obs.Profile.path)
          (json_escape e.Mdh_obs.Profile.path)
          e.Mdh_obs.Profile.count e.Mdh_obs.Profile.total_s
          (frac e.Mdh_obs.Profile.total_s)
      in
      let phase_json (e : Mdh_obs.Profile.entry) =
        Printf.sprintf
          "    { \"path\": \"%s\", \"count\": %d, \"seconds\": %.9f }"
          (json_escape e.Mdh_obs.Profile.path)
          e.Mdh_obs.Profile.count e.Mdh_obs.Profile.total_s
      in
      Printf.printf
        "{\n\
        \  \"schema\": \"mdh-profile/1\",\n\
        \  \"workload\": \"%s\",\n\
        \  \"input\": \"%s\",\n\
        \  \"digest\": \"%s\",\n\
        \  \"backend\": \"%s\",\n\
        \  \"runs\": %d,\n\
        \  \"wall_s\": %.9f,\n\
        \  \"exec_s\": %.9f,\n\
        \  \"levels\": [\n%s\n  ],\n\
        \  \"phases\": [\n%s\n  ]\n\
         }\n"
        (json_escape wl) (json_escape input) digest backend_name repeat wall
        exec_s
        (String.concat ",\n"
           (List.map level_json model @ List.map extra_json extras))
        (String.concat ",\n" (List.map phase_json phases))
    end
    else begin
      Printf.printf "%s (input %s) — digest %s, backend %s, %d run(s)\n" wl
        input digest backend_name repeat;
      let row path label count self_s mfrac =
        Printf.printf "  %-9s %-52s %10.3f ms %6.1f%% %s  (×%d)\n" path
          (if String.length label > 52 then String.sub label 0 52 else label)
          (self_s *. 1e3)
          (100.0 *. frac self_s)
          (match mfrac with
          | Some f -> Printf.sprintf "%6.1f%%" (100.0 *. f)
          | None -> "     —")
          count
      in
      Printf.printf "  %-9s %-52s %13s %7s %7s\n" "path" "plan level"
        "measured" "share" "model";
      List.iter
        (fun (s : Cost.level_share) ->
          let count, self_s = self_of s.Cost.ls_path in
          row s.Cost.ls_path s.Cost.ls_label count self_s
            (Some s.Cost.ls_fraction))
        model;
      List.iter
        (fun (e : Mdh_obs.Profile.entry) ->
          row e.Mdh_obs.Profile.path e.Mdh_obs.Profile.path
            e.Mdh_obs.Profile.count e.Mdh_obs.Profile.total_s None)
        extras;
      Printf.printf "  %-9s %-52s %10.3f ms %6.1f%%\n" "exec"
        "total (CPU time across workers)" (exec_s *. 1e3)
        (if exec_s > 0.0 then 100.0 else 0.0);
      Printf.printf "  wall: %.4fs over %d run(s)\n" wall repeat;
      if phases <> [] then begin
        print_endline "phases:";
        List.iter
          (fun (e : Mdh_obs.Profile.entry) ->
            Printf.printf "  %-26s %10.3f ms  (×%d)\n"
              (String.sub e.Mdh_obs.Profile.path 6
                 (String.length e.Mdh_obs.Profile.path - 6))
              (e.Mdh_obs.Profile.total_s *. 1e3)
              e.Mdh_obs.Profile.count)
          phases
      end
    end;
    finish_obs ~trace ~metrics ~metrics_out
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ workload_arg
      $ Arg.(value & opt string "test" & info [ "input"; "i" ] ~docv:"1|2|test")
      $ schedule_arg $ backend_arg $ repeat_arg $ json_arg $ flame_arg
      $ seed_arg $ trace_arg $ metrics_arg $ metrics_out_arg)

let () =
  (match Mdh_fault.Fault.arm_from_env () with
  | Ok _ -> ()
  | Error msg ->
    prerr_endline ("mdhc: MDH_FAULTS: " ^ msg);
    exit 1);
  let doc = "MDH directive compiler driver (paper reproduction)" in
  let info = Cmd.info "mdhc" ~version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; devices_cmd; show_cmd; plan_cmd; profile_cmd; tune_cmd;
            compare_cmd; run_cmd; compile_cmd; codegen_cmd; check_cmd;
            optimize_cmd ]))
