(* Differential harness for the plan-compiled specializer and the
   compiled-OpenMP-C backend (this PR's tentpole).

   Both backends are checked against Semantics.exec — the executable
   paper semantics — across the whole catalogue: the specializer under
   pinned-random legal schedules, the compiled C end to end through
   gcc when a C compiler is on PATH (an explicit SKIP line otherwise,
   never silently). The satellites ride along: commuted-multiplicand
   fast-path matching, hit-vs-error fast-path accounting with fallback,
   zero-extent executor semantics, digest-cache hit counting and the
   ?specialize:false escape hatch. *)

module W = Mdh_workloads.Workload
module Catalog = Mdh_workloads.Catalog
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Scalar = Mdh_tensor.Scalar
module Index_fn = Mdh_tensor.Index_fn
module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module D = Mdh_directive.Directive
module Transform = Mdh_directive.Transform
module Schedule = Mdh_lowering.Schedule
module Lower = Mdh_lowering.Lower
module Plan_cache = Mdh_lowering.Plan_cache
module Device = Mdh_machine.Device
module Metrics = Mdh_obs.Metrics
module Fault = Mdh_fault.Fault
module Cc = Mdh_codegen.Cc
module Openmp_c = Mdh_codegen.Openmp_c
module Rng = Mdh_support.Rng
open Mdh_runtime

let check = Alcotest.check
let with_pool f = Pool.with_pool ~num_domains:3 f
let cpu = Device.xeon6140_like

let outputs_agree ?(rel = 1e-4) ?(abs = 1e-5) md a b =
  List.for_all
    (fun (o : Md_hom.output) ->
      let da = Buffer.data (Buffer.env_find a o.Md_hom.out_name) in
      let db = Buffer.data (Buffer.env_find b o.Md_hom.out_name) in
      Dense.approx_equal ~rel ~abs da db)
    md.Md_hom.outputs

let plan_of md sched =
  match Plan_cache.build md cpu sched with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan build: %s" e

(* --- the specializer computes the reference result, catalogue-wide --- *)

let test_specializer_matches_reference () =
  (* every workload x pinned-random legal schedules: Specializer.try_run
     agrees with Semantics.exec within the repository tolerance. PRL and
     KMeans are the computations it must refuse (records + a non-builtin
     reduction operator) — refusing is part of the contract. *)
  let rng = Rng.create 20260 in
  with_pool (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:17 in
          if List.mem (String.lowercase_ascii w.W.wl_name) [ "prl"; "kmeans" ]
          then begin
            let plan = plan_of md (Schedule.sequential md) in
            (match Specializer.supported plan md with
            | Ok () -> Alcotest.failf "%s reported specializable" w.W.wl_name
            | Error _ -> ());
            check Alcotest.bool (w.W.wl_name ^ " refused") true
              (Specializer.try_run pool plan md env = None)
          end
          else begin
            let expected = Semantics.exec md env in
            let tried = ref 0 and draws = ref 0 in
            while !tried < 3 && !draws < 50 do
              incr draws;
              match Test_plan_exec.random_schedule rng md cpu with
              | None -> ()
              | Some sched -> (
                incr tried;
                let plan = plan_of md sched in
                match Specializer.try_run pool plan md env with
                | None ->
                  Alcotest.failf "%s under %s: specializer refused (%s)"
                    w.W.wl_name (Schedule.to_string sched)
                    (match Specializer.supported plan md with
                    | Error e -> e
                    | Ok () -> "buffer binding failed")
                | Some got ->
                  check Alcotest.bool
                    (Printf.sprintf "%s under %s" w.W.wl_name
                       (Schedule.to_string sched))
                    true
                    (outputs_agree md got expected))
            done;
            check Alcotest.bool (w.W.wl_name ^ ": legal draws found") true
              (!tried > 0)
          end)
        Catalog.all)

(* --- digest-keyed memoization: second run is a hit, zero recompiles --- *)

let test_digest_cache_hits () =
  (* a fresh hom name guarantees a fresh digest, so the first run must
     miss+compile and the second must hit without recompiling; counters
     are process-wide, so everything is asserted as deltas *)
  let md =
    Transform.to_md_hom_exn
      (D.make ~name:"SpecCacheProbe"
         ~out:[ D.buffer "r" Scalar.Fp32 ]
         ~inp:[ D.buffer "x" Scalar.Fp32; D.buffer "y" Scalar.Fp32 ]
         ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
         (D.for_ "i" 6
            (D.for_ "k" 9
               (D.body
                  [ D.assign "r" [ Expr.idx "i" ]
                      Expr.(read "x" [ idx "i"; idx "k" ] * read "y" [ idx "k" ]) ]))))
  in
  let rng = Rng.create 4 in
  let env =
    Buffer.env_of_list
      [ W.float_buffer "x" rng [| 6; 9 |]; W.float_buffer "y" rng [| 9 |] ]
  in
  with_pool (fun pool ->
      let plan = plan_of md (Schedule.sequential md) in
      let s0 = Specializer.stats () in
      let run () =
        match Specializer.try_run pool plan md env with
        | Some got ->
          check Alcotest.bool "probe result" true
            (outputs_agree md got (Semantics.exec md env))
        | None -> Alcotest.fail "probe refused"
      in
      run ();
      let s1 = Specializer.stats () in
      check Alcotest.int "first run misses" (s0.misses + 1) s1.misses;
      check Alcotest.int "first run compiles" (s0.compiles + 1) s1.compiles;
      run ();
      let s2 = Specializer.stats () in
      check Alcotest.int "second run hits" (s1.hits + 1) s2.hits;
      check Alcotest.int "warm run recompiles nothing" s1.compiles s2.compiles)

(* --- ?specialize:false is a real escape hatch --- *)

let test_specialize_false_escape () =
  with_pool (fun pool ->
      let w = Option.get (Catalog.find "matmul") in
      let md = W.to_md_hom w w.W.test_params in
      let env = w.W.gen w.W.test_params ~seed:23 in
      let sched =
        { (Schedule.sequential md) with
          Schedule.parallel_dims = Lower.parallelisable_dims md }
      in
      let s0 = Specializer.stats () in
      (match Exec.run ~fastpath:false ~specialize:false pool md sched env with
      | Error e -> Alcotest.fail e
      | Ok got ->
        check Alcotest.bool "walker result" true
          (outputs_agree md got (Semantics.exec md env)));
      let s1 = Specializer.stats () in
      check Alcotest.int "no cache traffic" (s0.hits + s0.misses)
        (s1.hits + s1.misses))

(* --- commuted multiplicands still hit the fast-path kernels --- *)

let commuted_matmul =
  (* b[k][j] * a[i][k]: the textbook matmul with the operands of the
     multiplication swapped — semantically identical, and the bug this
     PR fixes is that the matcher only accepted the a-first spelling *)
  Transform.to_md_hom_exn
    (D.make ~name:"MatMulCommuted"
       ~out:[ D.buffer "c" Scalar.Fp32 ]
       ~inp:[ D.buffer "a" Scalar.Fp32; D.buffer "b" Scalar.Fp32 ]
       ~combine_ops:
         [ Combine.cc; Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
       (D.for_ "i" 6
          (D.for_ "j" 7
             (D.for_ "k" 8
                (D.body
                   [ D.assign "c"
                       [ Expr.idx "i"; Expr.idx "j" ]
                       Expr.(
                         read "b" [ idx "k"; idx "j" ] * read "a" [ idx "i"; idx "k" ]) ])))))

let commuted_matvec =
  Transform.to_md_hom_exn
    (D.make ~name:"MatVecCommuted"
       ~out:[ D.buffer "w" Scalar.Fp32 ]
       ~inp:[ D.buffer "M" Scalar.Fp32; D.buffer "v" Scalar.Fp32 ]
       ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
       (D.for_ "i" 7
          (D.for_ "k" 9
             (D.body
                [ D.assign "w" [ Expr.idx "i" ]
                    Expr.(read "v" [ idx "k" ] * read "M" [ idx "i"; idx "k" ]) ]))))

let test_commuted_operands_hit_fastpath () =
  let hits = Metrics.counter "runtime.kernels.fastpath_hits" in
  with_pool (fun pool ->
      let run md env =
        let sched =
          { (Schedule.sequential md) with
            Schedule.parallel_dims = Lower.parallelisable_dims md }
        in
        match Exec.run pool md sched env with
        | Error e -> Alcotest.fail e
        | Ok got ->
          check Alcotest.bool (md.Md_hom.hom_name ^ " correct") true
            (outputs_agree md got (Semantics.exec md env))
      in
      let rng = Rng.create 8 in
      let before = Metrics.value hits in
      run commuted_matmul
        (Buffer.env_of_list
           [ W.float_buffer "a" rng [| 6; 8 |]; W.float_buffer "b" rng [| 8; 7 |] ]);
      check Alcotest.int "commuted matmul hits the kernel" (before + 1)
        (Metrics.value hits);
      run commuted_matvec
        (Buffer.env_of_list
           [ W.float_buffer "M" rng [| 7; 9 |]; W.float_buffer "v" rng [| 9 |] ]);
      check Alcotest.int "commuted matvec hits the kernel" (before + 2)
        (Metrics.value hits);
      (* accepting both orders must not loosen the pattern: matmul^t reads
         b[j][k], which neither operand order makes a matmul *)
      let wt = Option.get (Catalog.find "matmul^t") in
      let mdt = W.to_md_hom wt wt.W.test_params in
      run mdt (wt.W.gen wt.W.test_params ~seed:8);
      check Alcotest.int "matmul^t still no false match" (before + 2)
        (Metrics.value hits))

(* --- a raising kernel is an error, not a hit, and the run degrades --- *)

let test_fastpath_error_falls_back () =
  let hits = Metrics.counter "runtime.kernels.fastpath_hits" in
  let errors = Metrics.counter "runtime.kernels.fastpath_errors" in
  with_pool (fun pool ->
      let w = Option.get (Catalog.find "dot") in
      let md = W.to_md_hom w w.W.test_params in
      let env = w.W.gen w.W.test_params ~seed:31 in
      let sched =
        { (Schedule.sequential md) with
          Schedule.parallel_dims = Lower.parallelisable_dims md }
      in
      let h0 = Metrics.value hits and e0 = Metrics.value errors in
      (* the kernel.run site raises inside the matched dot kernel (pool.job
         faults model dead workers and are absorbed by work stealing); the
         old code counted the hit and opened the span before running the
         kernel, so the abort was billed as a success *)
      (match Fault.configure "kernel.run:raise@1" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let result = Exec.run pool md sched env in
      Fault.disarm ();
      (match result with
      | Error e -> Alcotest.failf "no fallback, run failed: %s" e
      | Ok got ->
        check Alcotest.bool "degraded run still correct" true
          (outputs_agree md got (Semantics.exec md env)));
      check Alcotest.int "no hit recorded" h0 (Metrics.value hits);
      check Alcotest.int "one error recorded" (e0 + 1) (Metrics.value errors))

(* --- zero-extent iteration spaces: parallel = sequential = defined --- *)

let zero_extent_md =
  (* built directly: the directive front end has no reason to admit a
     zero-trip loop, but a tuner sweeping problem sizes can produce one,
     and the executor used to hand back never-written output buffers
     from the parallel path (zero jobs scheduled) *)
  {
    Md_hom.hom_name = "ZeroExtent";
    dims = [| "k" |];
    sizes = [| 0 |];
    combine_ops = [| Combine.pw (Combine.add Scalar.Fp32) |];
    inputs =
      [ { Md_hom.inp_name = "x";
          inp_ty = Scalar.Fp32;
          inp_shape = [| 4 |];
          accesses =
            [ { Md_hom.fn = Index_fn.identity 1; exprs = [ Expr.idx "k" ] } ] } ];
    outputs =
      [ { Md_hom.out_name = "r";
          out_ty = Scalar.Fp32;
          out_shape = [| 1 |];
          out_access =
            { Md_hom.fn =
                Index_fn.affine ~arity:1
                  [ Index_fn.coord ~coeffs:[| 0 |] ~offset:0 ];
              exprs = [ Expr.int 0 ] };
          value = Expr.(read "x" [ idx "k" ]) } ];
  }

let test_zero_extent_runs () =
  with_pool (fun pool ->
      let md = zero_extent_md in
      let rng = Rng.create 3 in
      let env = Buffer.env_of_list [ W.float_buffer "x" rng [| 4 |] ] in
      let seq = Exec.run_seq md env in
      let sched =
        { (Schedule.sequential md) with
          Schedule.parallel_dims = [ 0 ];
          Schedule.used_layers = [ 0 ] }
      in
      match Exec.run pool md sched env with
      | Error e -> Alcotest.failf "zero-extent run failed: %s" e
      | Ok got ->
        let out = Buffer.data (Buffer.env_find got "r") in
        check (Alcotest.float 0.0) "empty sum is the identity" 0.0
          (Scalar.to_float (Dense.get_linear out 0));
        check Alcotest.bool "parallel = sequential on zero extents" true
          (Dense.equal out (Buffer.data (Buffer.env_find seq "r"))))

(* --- generated C: reduction temporaries start at the operator identity --- *)

let reduction_md name op =
  Transform.to_md_hom_exn
    (D.make ~name
       ~out:[ D.buffer "r" Scalar.Fp32 ]
       ~inp:[ D.buffer "x" Scalar.Fp32 ]
       ~combine_ops:[ Combine.pw op ]
       (D.for_ "k" 11
          (D.body [ D.assign "r" [ Expr.int 0 ] Expr.(read "x" [ idx "k" ]) ])))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_openmp_identity_init () =
  (* the miscompile this PR pins: every reduction temporary was seeded
     with 0, which absorbs a mul reduction and clamps max at zero *)
  let pin name op needle =
    match Openmp_c.generate (reduction_md name op) with
    | Error e ->
      Alcotest.failf "%s: %a" name Mdh_codegen.Kernel.pp_error e
    | Ok src ->
      check Alcotest.bool (name ^ " initialises with " ^ needle) true
        (contains src ("sum = " ^ needle ^ ";"))
  in
  pin "MaxReduce" (Combine.max Scalar.Fp32) "-INFINITY";
  pin "MulReduce" (Combine.mul Scalar.Fp32) "1";
  pin "AddReduce" (Combine.add Scalar.Fp32) "0";
  (* and end to end through gcc, where the wrong identity is observable *)
  if Cc.available () then
    List.iter
      (fun (name, op) ->
        let md = reduction_md name op in
        let rng = Rng.create 12 in
        let env = Buffer.env_of_list [ W.float_buffer "x" rng [| 11 |] ] in
        match Cc.execute md env with
        | Error e -> Alcotest.failf "%s: %s" name e
        | Ok got ->
          check Alcotest.bool (name ^ " compiled C correct") true
            (outputs_agree ~rel:1e-3 ~abs:1e-4 md got (Semantics.exec md env)))
      [ ("MaxReduce", Combine.max Scalar.Fp32);
        ("MulReduce", Combine.mul Scalar.Fp32);
        ("AddReduce", Combine.add Scalar.Fp32) ]
  else print_endline "test_specializer: SKIP compiled-C identity check (no gcc)"

(* --- compiled C = reference, catalogue-wide (gcc-gated) --- *)

(* what the Listing 2 C shape can express standalone: one output, at most
   one reduction loop, builtin operators, fp32 buffers throughout *)
let cc_expressible (md : Md_hom.t) =
  List.length md.Md_hom.outputs = 1
  && List.length (Md_hom.reduction_dims md) <= 1
  && Array.for_all
       (fun op ->
         match Combine.custom_fn_of op with
         | Some fn -> fn.Combine.builtin
         | None -> true)
       md.Md_hom.combine_ops
  && List.for_all
       (fun (i : Md_hom.input) -> Scalar.equal_ty i.inp_ty Scalar.Fp32)
       md.Md_hom.inputs
  && List.for_all
       (fun (o : Md_hom.output) -> Scalar.equal_ty o.out_ty Scalar.Fp32)
       md.Md_hom.outputs

let test_cc_matches_reference () =
  if not (Cc.available ()) then
    print_endline "test_specializer: SKIP compiled-C differential (no gcc)"
  else
    List.iter
      (fun (w : W.t) ->
        let md = W.to_md_hom w w.W.test_params in
        let env = w.W.gen w.W.test_params ~seed:29 in
        match Cc.execute md env with
        | Error e ->
          if cc_expressible md then
            Alcotest.failf "%s: compiled C refused an expressible computation: %s"
              w.W.wl_name e
        | Ok got ->
          check Alcotest.bool (w.W.wl_name ^ " expected expressible") true
            (cc_expressible md);
          (* the kernel accumulates in C float with OpenMP reassociation:
             looser tolerance than the double-accumulating specializer *)
          check Alcotest.bool (w.W.wl_name ^ " compiled C = reference") true
            (outputs_agree ~rel:1e-3 ~abs:1e-4 md got (Semantics.exec md env)))
      Catalog.all

(* --- block leaves: every expression shape, operator and extent --- *)

(* fp32 inputs holding small integers drawn from [values], so every
   backend's arithmetic is exact and results must match bit for bit *)
let small_int_env ?(values = [| -5.; -4.; -3.; -2.; -1.; 0.; 1.; 2.; 3.; 4.; 5. |])
    (md : Md_hom.t) =
  let rng = Rng.create 11 in
  Buffer.env_of_list
    (List.map
       (fun (i : Md_hom.input) ->
         Buffer.of_dense i.Md_hom.inp_name
           (Dense.of_fn Scalar.Fp32 i.Md_hom.inp_shape (fun _ ->
                Scalar.f32 values.(Rng.int rng (Array.length values)))))
       md.Md_hom.inputs)

let block_case name ~loops ~ops ~inputs ~out value =
  Transform.to_md_hom_exn
    (D.make ~name
       ~out:[ D.buffer "r" Scalar.Fp32 ]
       ~inp:(List.map (fun (b, shape) -> D.buffer ~shape b Scalar.Fp32) inputs)
       ~combine_ops:ops
       (List.fold_right
          (fun (d, extent) nest -> D.for_ d extent nest)
          loops
          (D.body [ D.assign "r" (List.map Expr.idx out) value ])))

(* sequential (leaf on the innermost loop), every parallelisable dim
   distributed (leaf on a job's range or the tree dim, pw ranges split
   when there are few cc points), and 4-wide cache tiles (leaf on a
   tile's inner loop) *)
let block_schedules md =
  let seq = Schedule.sequential md in
  [ seq;
    { seq with Schedule.parallel_dims = Lower.parallelisable_dims md };
    { seq with Schedule.tile_sizes = Array.map (fun _ -> 4) seq.Schedule.tile_sizes } ]

let outputs_equal md a b =
  List.for_all
    (fun (o : Md_hom.output) ->
      Dense.equal
        (Buffer.data (Buffer.env_find a o.Md_hom.out_name))
        (Buffer.data (Buffer.env_find b o.Md_hom.out_name)))
    md.Md_hom.outputs

let exact_everywhere pool ?values md =
  let env = small_int_env ?values md in
  let expected = Semantics.exec md env in
  List.iter
    (fun sched ->
      let label = md.Md_hom.hom_name ^ " under " ^ Schedule.to_string sched in
      match Specializer.try_run pool (plan_of md sched) md env with
      | None -> Alcotest.failf "%s: specializer refused" label
      | Some got -> check Alcotest.bool label true (outputs_equal md got expected))
    (block_schedules md)

let fadd = Combine.pw (Combine.add Scalar.Fp32)

(* shapes the block compiler leaves to the per-point closure: a
   non-affine index, an integer division lifted to float, a [let], an
   [if], and a cast that rounds mid-expression *)
let test_fallback_shapes () =
  let open Expr in
  let cases =
    [ block_case "NonAffine" ~loops:[ ("i", 7); ("k", 300) ] ~ops:[ Combine.cc; fadd ]
        ~inputs:[ ("a", [| 7; 300 |]); ("b", [| 300 |]) ] ~out:[ "i" ]
        (read "a" [ idx "i"; Binop (Min, idx "k" + int 1, int 299) ] * read "b" [ idx "k" ]);
      block_case "IntDiv" ~loops:[ ("i", 600) ] ~ops:[ Combine.cc ]
        ~inputs:[ ("x", [| 600 |]) ] ~out:[ "i" ]
        (cast Scalar.Fp32 (idx "i" / int 7) + read "x" [ idx "i" ]);
      block_case "Let" ~loops:[ ("i", 5); ("k", 270) ] ~ops:[ Combine.cc; fadd ]
        ~inputs:[ ("x", [| 5; 270 |]); ("y", [| 270 |]) ] ~out:[ "i" ]
        (let_ "t" (read "x" [ idx "i"; idx "k" ]) ((var "t" * var "t") + read "y" [ idx "k" ]));
      block_case "If" ~loops:[ ("i", 300) ] ~ops:[ Combine.cc ]
        ~inputs:[ ("x", [| 300 |]) ] ~out:[ "i" ]
        (if_ (idx "i" < int 150)
           (Unop (Neg, read "x" [ idx "i" ]))
           (read "x" [ idx "i" ] * f32 2.0));
      block_case "MidCast" ~loops:[ ("i", 300) ] ~ops:[ Combine.cc ]
        ~inputs:[ ("x", [| 300 |]); ("y", [| 300 |]); ("z", [| 300 |]) ] ~out:[ "i" ]
        (cast Scalar.Fp32 (read "x" [ idx "i" ] / read "y" [ idx "i" ]) * read "z" [ idx "i" ]) ]
  in
  with_pool (fun pool -> List.iter (exact_everywhere pool) cases)

(* every builtin as the pw operator (the register fold, the strided fold
   and the partials' combine) and as a ps scan *)
let test_builtin_operators () =
  let reduce name fn =
    block_case name ~loops:[ ("i", 3); ("k", 300) ] ~ops:[ Combine.cc; Combine.pw fn ]
      ~inputs:[ ("x", [| 3; 300 |]) ] ~out:[ "i" ]
      (Expr.read "x" [ Expr.idx "i"; Expr.idx "k" ])
  in
  let scan name fn =
    block_case name ~loops:[ ("i", 300); ("j", 3) ] ~ops:[ Combine.ps fn; Combine.cc ]
      ~inputs:[ ("x", [| 300; 3 |]) ] ~out:[ "i"; "j" ]
      Expr.(read "x" [ idx "i"; idx "j" ] + f32 1.0)
  in
  with_pool (fun pool ->
      exact_everywhere pool (reduce "PwAdd" (Combine.add Scalar.Fp32));
      exact_everywhere pool ~values:[| -1.; 1. |] (reduce "PwMul" (Combine.mul Scalar.Fp32));
      exact_everywhere pool (reduce "PwMin" (Combine.min Scalar.Fp32));
      exact_everywhere pool (reduce "PwMax" (Combine.max Scalar.Fp32));
      exact_everywhere pool (scan "PsAdd" (Combine.add Scalar.Fp32));
      exact_everywhere pool (scan "PsMax" (Combine.max Scalar.Fp32)))

let test_extent_one_dims () =
  let open Expr in
  with_pool (fun pool ->
      exact_everywhere pool
        (block_case "UnitDims" ~loops:[ ("i", 1); ("j", 5); ("k", 1) ]
           ~ops:[ Combine.cc; Combine.cc; fadd ]
           ~inputs:[ ("x", [| 1; 5; 1 |]) ] ~out:[ "i"; "j" ]
           (read "x" [ idx "i"; idx "j"; idx "k" ] * f32 2.0));
      exact_everywhere pool
        (block_case "UnitLeaf" ~loops:[ ("i", 6); ("k", 1) ] ~ops:[ Combine.cc; fadd ]
           ~inputs:[ ("x", [| 6 |]) ] ~out:[ "i" ]
           (f32 3.0 - read "x" [ idx "i" + idx "k" ]));
      (* no loop at all: the leaf is the one point *)
      exact_everywhere pool
        (Transform.to_md_hom_exn
           (D.make ~name:"RankZero"
              ~out:[ D.buffer "r" Scalar.Fp32 ]
              ~inp:[ D.buffer "x" Scalar.Fp32 ]
              ~combine_ops:[]
              (D.body [ D.assign "r" [ int 0 ] (read "x" [ int 1 ] * f32 2.0) ]))))

(* the profiled run shares the unprofiled one's driver, with clock reads
   added: what it computes must not change *)
let test_profiled_bit_identical () =
  let module Profile = Mdh_obs.Profile in
  with_pool (fun pool ->
      List.iter
        (fun name ->
          let w = Option.get (Catalog.find name) in
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:3 in
          List.iter
            (fun sched ->
              let plan = plan_of md sched in
              let run () = Option.get (Specializer.try_run pool plan md env) in
              let off = run () in
              Profile.reset ();
              Profile.set_enabled true;
              let on =
                Fun.protect
                  ~finally:(fun () ->
                    Profile.set_enabled false;
                    Profile.reset ())
                  run
              in
              check Alcotest.bool
                (name ^ " profiled = unprofiled under " ^ Schedule.to_string sched)
                true (outputs_equal md off on))
            (block_schedules md))
        [ "ccsd(t)"; "mbbs"; "jacobi1d"; "mcc" ])

(* --- Fastpath's matmul tile comes from the plan only when it tiles --- *)

let test_matmul_tile () =
  let w = Option.get (Catalog.find "matmul") in
  let md = W.to_md_hom w [ ("I", 128); ("J", 128); ("K", 128) ] in
  let seq = Schedule.sequential md in
  check Alcotest.int "untiled 128^3 plan" 32
    (Fastpath.matmul_tile
       (plan_of md { seq with Schedule.parallel_dims = Lower.parallelisable_dims md }));
  check Alcotest.int "plan tiled at 16" 16
    (Fastpath.matmul_tile (plan_of md { seq with Schedule.tile_sizes = [| 16; 16; 16 |] }))

let suite =
  let tc = Alcotest.test_case in
  ( "specializer",
    [ tc "specializer matches reference across catalogue" `Slow
        test_specializer_matches_reference;
      tc "digest cache hits, no warm recompiles" `Quick test_digest_cache_hits;
      tc "?specialize:false escape hatch" `Quick test_specialize_false_escape;
      tc "commuted multiplicands hit fastpath" `Quick
        test_commuted_operands_hit_fastpath;
      tc "fastpath error counted and degraded" `Quick
        test_fastpath_error_falls_back;
      tc "zero-extent workloads execute" `Quick test_zero_extent_runs;
      tc "block fallback shapes match reference" `Quick test_fallback_shapes;
      tc "pw and ps builtins match reference" `Quick test_builtin_operators;
      tc "extent-1 dims match reference" `Quick test_extent_one_dims;
      tc "profiled run is bit-identical" `Quick test_profiled_bit_identical;
      tc "fastpath matmul tile" `Quick test_matmul_tile;
      tc "generated C reduction identities" `Slow test_openmp_identity_init;
      tc "compiled C matches reference across catalogue" `Slow
        test_cc_matches_reference ] )
