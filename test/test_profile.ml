(* Tests for the plan-level profiler (lib/obs/profile.ml and its runtime
   instrumentation): disabled-mode purity — no cells appear and execution
   results are bit-identical with the flag off vs on; the per-level self
   times telescoping to the enclosing exec cell within the documented 5%;
   digest-keyed accumulation across repeated runs; and the cost model's
   level attribution lining up with the profiler's path vocabulary. *)

module Profile = Mdh_obs.Profile
module W = Mdh_workloads.Workload
module Schedule = Mdh_lowering.Schedule
module Plan = Mdh_lowering.Plan
module Plan_cache = Mdh_lowering.Plan_cache
module Lower = Mdh_lowering.Lower
module Cost = Mdh_lowering.Cost
module Pool = Mdh_runtime.Pool
module Exec = Mdh_runtime.Exec
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense

let check = Alcotest.check
let cpu = Mdh_machine.Device.xeon6140_like

(* every test must restore the process-wide flag and registry, or the
   bit-identity assertions see cells from earlier tests *)
let with_profiling f =
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    f

let find name =
  match Mdh_workloads.Catalog.find name with
  | Some w -> w
  | None -> Alcotest.fail ("unknown workload " ^ name)

(* the same host schedule mdhc profile and the plan-exec bench use: the
   deterministic per-device lowering default pinned to the pool's layer *)
let host_schedule md = { (Lower.mdh_default md cpu) with Schedule.used_layers = [ 0 ] }

let run_profiled ?(fastpath = false) pool (w : W.t) =
  let md = W.to_md_hom w w.W.test_params in
  let env = w.W.gen w.W.test_params ~seed:5 in
  let sched = host_schedule md in
  let plan =
    match Plan_cache.build md (Exec.host_device pool) sched with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  match Exec.run ~fastpath pool md sched env with
  | Ok env' -> (plan, env')
  | Error e -> Alcotest.fail e

let test_disabled_no_cells () =
  Profile.reset ();
  check Alcotest.bool "flag off" false (Profile.enabled ());
  Pool.with_pool (fun pool -> ignore (run_profiled pool (find "matmul")));
  check Alcotest.(list string) "no cells appear" [] (Profile.digests ())

(* profiling must never change what a run computes: execute the whole
   catalogue with the flag off and on and require exact value equality
   (not tolerance) on every output buffer *)
let test_catalogue_bit_identity () =
  Pool.with_pool (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          Profile.set_enabled false;
          let _, off = run_profiled pool w in
          let _, on = with_profiling (fun () -> run_profiled pool w) in
          List.iter
            (fun (o : Mdh_core.Md_hom.output) ->
              let data e = Buffer.data (Buffer.env_find e o.Mdh_core.Md_hom.out_name) in
              check Alcotest.bool
                (String.lowercase_ascii w.W.wl_name ^ " bit-identical")
                true
                (Dense.equal (data off) (data on)))
            md.Mdh_core.Md_hom.outputs)
        Mdh_workloads.Catalog.all)

(* the tree view's invariant: level self times (everything that is not a
   phase) sum to the enclosing exec cell — the telescoping is exact by
   construction, so 5% headroom only covers float summation order. The
   [cells] must be among the recorded ones: phases (bind) outside the
   exec cell, levels (kernel, writeback) inside it. *)
let sum_matches_exec ?fastpath ~cells name =
  Pool.with_pool (fun pool ->
      with_profiling (fun () ->
          let plan, _ = run_profiled ?fastpath pool (find name) in
          let entries = Profile.snapshot (Plan.digest plan) in
          check Alcotest.bool (name ^ " has cells") true (entries <> []);
          List.iter
            (fun cell ->
              check Alcotest.bool (name ^ " records " ^ cell) true
                (List.exists (fun (e : Profile.entry) -> e.Profile.path = cell) entries))
            cells;
          let is_phase p = String.length p > 6 && String.sub p 0 6 = "phase:" in
          let exec = ref 0.0 and levels = ref 0.0 in
          List.iter
            (fun (e : Profile.entry) ->
              if e.Profile.path = "exec" then exec := e.Profile.total_s
              else if not (is_phase e.Profile.path) then
                levels := !levels +. e.Profile.total_s)
            entries;
          check Alcotest.bool (name ^ " exec cell recorded") true (!exec > 0.0);
          let err = Float.abs (!levels -. !exec) /. !exec in
          if err > 0.05 then
            Alcotest.failf "%s: level sum %.9f vs exec %.9f (%.1f%% off)" name
              !levels !exec (100.0 *. err)))

let test_sum_specializer () =
  sum_matches_exec ~cells:[ "phase:specializer.bind"; "phase:specializer.run"; "writeback" ]
    "matmul"

let test_sum_fastpath () =
  sum_matches_exec ~fastpath:true
    ~cells:[ "phase:fastpath"; "phase:fastpath.bind"; "kernel"; "writeback" ]
    "matmul"

let test_sum_walker () = sum_matches_exec ~cells:[ "phase:walker" ] "prl"

let test_digest_accumulation () =
  Pool.with_pool (fun pool ->
      with_profiling (fun () ->
          let w = find "matvec" in
          let plan, _ = run_profiled pool w in
          let digest = Plan.digest plan in
          let exec_entry () =
            match
              List.find_opt
                (fun e -> e.Profile.path = "exec")
                (Profile.snapshot digest)
            with
            | Some e -> e
            | None -> Alcotest.fail "no exec cell"
          in
          let once = exec_entry () in
          ignore (run_profiled pool w);
          let twice = exec_entry () in
          check Alcotest.int "counts double" (2 * once.Profile.count)
            twice.Profile.count;
          check Alcotest.bool "time accumulates" true
            (twice.Profile.total_s > once.Profile.total_s);
          (* a different digest keys its own cells *)
          let other, _ = run_profiled pool (find "matmul") in
          check Alcotest.bool "second digest registered" true
            (List.mem (Plan.digest other) (Profile.digests ()))))

let test_add_and_time_primitives () =
  with_profiling (fun () ->
      Profile.add ~digest:"d" ~path:"L0" 0.25;
      Profile.add ~digest:"d" ~path:"L0" 0.25;
      Profile.add_n ~digest:"d" ~path:"leaf" ~count:10 1.0;
      let v = Profile.time ~digest:"d" ~path:"timed" (fun () -> 42) in
      check Alcotest.int "time returns" 42 v;
      match Profile.snapshot "d" with
      | [ l0; leaf; timed ] ->
        check Alcotest.string "order is registration" "L0" l0.Profile.path;
        check Alcotest.int "two samples" 2 l0.Profile.count;
        check (Alcotest.float 1e-9) "summed" 0.5 l0.Profile.total_s;
        check Alcotest.int "batched count" 10 leaf.Profile.count;
        check Alcotest.bool "timed nonneg" true (timed.Profile.total_s >= 0.0)
      | es -> Alcotest.failf "expected 3 cells, got %d" (List.length es))

(* the model side of the tree view: fractions are a distribution and the
   paths speak the profiler's vocabulary (L<i> in level order, then leaf;
   matmul's innermost level, the tree-reduce dim, is the leaf's loop and
   priced with it) *)
let test_level_attribution_paths () =
  let w = find "matmul" in
  let md = W.to_md_hom w w.W.test_params in
  let plan =
    match Plan_cache.build md cpu (host_schedule md) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let shares = Cost.level_attribution plan in
  let total = List.fold_left (fun a s -> a +. s.Cost.ls_fraction) 0.0 shares in
  check (Alcotest.float 1e-9) "fractions sum to 1" 1.0 total;
  List.iter
    (fun s ->
      check Alcotest.bool "fraction in (0,1]" true
        (s.Cost.ls_fraction > 0.0 && s.Cost.ls_fraction <= 1.0))
    shares;
  let n = List.length plan.Plan.levels in
  (match List.nth plan.Plan.levels (n - 1) with
  | Plan.Tree_reduce _ -> ()
  | _ -> Alcotest.fail "matmul's innermost level is no longer its tree dim");
  let expected_paths = List.init (n - 1) (fun i -> "L" ^ string_of_int i) @ [ "leaf" ] in
  check
    Alcotest.(list string)
    "paths match profiler addressing" expected_paths
    (List.map (fun s -> s.Cost.ls_path) shares)

(* the model prices only what the specializer measures: every path
   [Cost.level_attribution] gives a share gets a cell, on every catalogue
   plan the specializer runs — host-parallel (tree partials under two
   workers) and sequential with 4-wide cache tiles *)
let test_model_paths_measured () =
  Pool.with_pool ~num_domains:2 (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:5 in
          let seq = Schedule.sequential md in
          List.iter
            (fun sched ->
              match Plan_cache.build md (Exec.host_device pool) sched with
              | Error e -> Alcotest.fail e
              | Ok plan when Mdh_runtime.Specializer.supported plan md = Ok () ->
                with_profiling (fun () ->
                    if Mdh_runtime.Specializer.try_run pool plan md env = None then
                      Alcotest.failf "%s: specializer refused" w.W.wl_name;
                    let measured =
                      List.map (fun (e : Profile.entry) -> e.Profile.path)
                        (Profile.snapshot (Plan.digest plan))
                    in
                    List.iter
                      (fun (s : Cost.level_share) ->
                        check Alcotest.bool
                          (Printf.sprintf "%s under %s measures %s" w.W.wl_name
                             (Schedule.to_string sched) s.Cost.ls_path)
                          true
                          (List.mem s.Cost.ls_path measured))
                      (Cost.level_attribution plan))
              | Ok _ -> ())
            [ host_schedule md;
              { seq with Schedule.tile_sizes = Array.map (fun _ -> 4) seq.Schedule.tile_sizes } ])
        Mdh_workloads.Catalog.all)

let suite =
  let tc = Alcotest.test_case in
  ( "profile",
    [ tc "disabled mode creates no cells" `Quick test_disabled_no_cells;
      tc "catalogue bit-identity off vs on" `Slow test_catalogue_bit_identity;
      tc "level sum = exec cell (specializer)" `Quick test_sum_specializer;
      tc "level sum = exec cell (fastpath)" `Quick test_sum_fastpath;
      tc "level sum = exec cell (walker)" `Quick test_sum_walker;
      tc "digest-keyed accumulation" `Quick test_digest_accumulation;
      tc "add/add_n/time primitives" `Quick test_add_and_time_primitives;
      tc "cost attribution paths and sum" `Quick test_level_attribution_paths;
      tc "every modelled path is measured" `Quick test_model_paths_measured ] )
