(* Differential fuzzing: random *valid* directives over int32 buffers
   (exact arithmetic — no float tolerance), checked across every execution
   path in the repository:

     reference semantics  ==  in-place exec  ==  tiled evaluation
       ==  schedule-driven simulation  ==  parallel host execution

   and, where supported, kernel generation must succeed. The same
   generator over fp32 buffers holding small integers — where every
   accumulation order is exact — drives the fast backends, bit for bit:

     reference  ==  box walker  ==  specializer  ==  Fastpath (on a match)

   This is the strongest guarantee the reproduction offers: any schedule
   and any executor agree with the definitional MDH semantics on arbitrary
   computations, not just the catalogue. *)

module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Dense = Mdh_tensor.Dense
module Buffer = Mdh_tensor.Buffer
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module D = Mdh_directive.Directive
module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Rng = Mdh_support.Rng

(* --- generator --- *)

type sample = {
  dir : D.t;
  extents : int array;
  input_names : string list;
  tile_sizes : int array;
  seed : int;
}

let dim_names = [| "i"; "j"; "k" |]

(* Samples of element type [ty] (int32 or fp32); the random draws do not
   depend on it, so a seed gives the same directive shape in both. With
   [~long], one dim is 200-600 long and appears only in the first
   coordinate of an access, which keeps the inputs small; without it the
   draws are those of the plain generator. *)
let gen_sample ?(long = false) ty rng =
  let rank = Rng.int_in rng 1 3 in
  let extents = Array.init rank (fun _ -> Rng.int_in rng 1 5) in
  let long_dim = if long then Rng.int rng rank else -1 in
  if long then extents.(long_dim) <- Rng.int_in rng 200 600;
  (* combine ops: all pw dims share one commutative builtin; ps uses add *)
  let pw_fn = if Rng.bool rng then Combine.add ty else Combine.max ty in
  let ops =
    Array.init rank (fun _ ->
        match Rng.int rng 4 with
        | 0 | 1 -> Combine.cc
        | 2 -> Combine.pw pw_fn
        | _ -> Combine.ps (Combine.add ty))
  in
  (* at least the fuzz stays in exec's supported territory: mixing ps and
     pw is legal for the evaluators, so keep it *)
  let kept_dims =
    List.filter (fun d -> not (Combine.collapses ops.(d))) (List.init rank Fun.id)
  in
  (* out view: the kept dims, possibly reversed (a permutation) *)
  let out_dims = if Rng.bool rng then kept_dims else List.rev kept_dims in
  let out_indices =
    if out_dims = [] then [ Expr.int 0 ]
    else List.map (fun d -> Expr.idx dim_names.(d)) out_dims
  in
  (* inputs: 1-2 buffers, 1-2 affine accesses each *)
  let n_inputs = Rng.int_in rng 1 2 in
  let input_names = List.init n_inputs (fun b -> Printf.sprintf "in%d" b) in
  let access _rng =
    (* 1-2 coordinates, each an affine combination of dims *)
    let n_coords = Rng.int_in rng 1 (max 1 rank) in
    List.init n_coords (fun c ->
        let base = Expr.int (Rng.int rng 2) in
        List.fold_left
          (fun acc d ->
            match Rng.int rng 3 with
            | 0 -> acc
            | _ when d = long_dim && c > 0 -> acc
            | 1 -> Expr.(acc + idx dim_names.(d))
            | _ -> Expr.(acc + (int 2 * idx dim_names.(d))))
          base (List.init rank Fun.id))
  in
  let reads =
    List.concat_map
      (fun name ->
        List.init (Rng.int_in rng 1 2) (fun _ -> Expr.read name (access rng)))
      input_names
  in
  (* value: fold the reads with + and *, plus a constant; an fp32 fold
     drops a zero constant, so that a bare [x * y] can reach Fastpath *)
  let c = Rng.int_in rng (-3) 3 in
  let start, reads =
    match reads with
    | r :: rest when c = 0 && Scalar.equal_ty ty Scalar.Fp32 -> (r, rest)
    | _ when Scalar.equal_ty ty Scalar.Fp32 -> (Expr.f32 (float c), reads)
    | _ -> (Expr.int c, reads)
  in
  let value =
    List.fold_left
      (fun acc r -> if Rng.bool rng then Expr.(acc + r) else Expr.(acc * r))
      start reads
  in
  let nest =
    List.fold_right
      (fun d acc -> D.for_ dim_names.(d) extents.(d) acc)
      (List.init rank Fun.id)
      (D.body [ D.assign "out" out_indices value ])
  in
  let dir =
    D.make ~name:"fuzz"
      ~out:[ D.buffer "out" ty ]
      ~inp:(List.map (fun n -> D.buffer n ty) input_names)
      ~combine_ops:(Array.to_list ops) nest
  in
  let tile_sizes = Array.init rank (fun d -> Rng.int_in rng 1 (extents.(d) + 2)) in
  { dir; extents; input_names; tile_sizes; seed = Rng.int rng 1_000_000 }

(* Inputs in [-10, 10]: at most 4 reads a point and 125 points keep every
   fp32 partial below 2^24, so fp32 arithmetic on them is exact. Long
   samples (up to 15000 points) take [~mag:2]. *)
let gen_env ?(mag = 10) sample md =
  let rng = Rng.create sample.seed in
  Buffer.env_of_list
    (List.map
       (fun (i : Md_hom.input) ->
         let ty = i.Md_hom.inp_ty in
         Buffer.of_dense i.Md_hom.inp_name
           (Dense.of_fn ty i.Md_hom.inp_shape (fun _ ->
                let v = Rng.int_in rng (-mag) mag in
                if Scalar.equal_ty ty Scalar.Fp32 then Scalar.f32 (float v) else Scalar.i32 v)))
       md.Md_hom.inputs)

(* the generator can produce invalid directives (e.g. an out view that
   repeats a dimension after collapse, or an empty-keep view colliding) —
   those must be *cleanly rejected*, never crash *)
let transform sample =
  match Mdh_directive.Transform.to_md_hom sample.dir with
  | Ok md -> Some md
  | Error _ -> None

let out_tensor env = Buffer.data (Buffer.env_find env "out")

let qcheck_sample_of ty =
  QCheck2.Gen.map
    (fun seed -> (seed, gen_sample ty (Rng.create seed)))
    QCheck2.Gen.(int_range 0 1_000_000_000)

let qcheck_sample = qcheck_sample_of Scalar.Int32

let parallel_schedule md =
  { (Mdh_lowering.Schedule.sequential md) with
    Mdh_lowering.Schedule.parallel_dims = Mdh_lowering.Lower.parallelisable_dims md }

let prop_cross_evaluator =
  QCheck2.Test.make ~name:"fuzz: reference == exec == tiled" ~count:400 qcheck_sample
    (fun (_, sample) ->
      match transform sample with
      | None -> true
      | Some md ->
        let env = gen_env sample md in
        let reference = out_tensor (Semantics.reference md env) in
        let exec = out_tensor (Semantics.exec md env) in
        let tiled =
          out_tensor (Semantics.eval_tiled md env ~tile_sizes:sample.tile_sizes)
        in
        Dense.equal reference exec && Dense.equal reference tiled)

let prop_simulation_matches =
  QCheck2.Test.make ~name:"fuzz: schedule-driven simulation == reference" ~count:150
    qcheck_sample
    (fun (_, sample) ->
      match transform sample with
      | None -> true
      | Some md ->
        let env = gen_env sample md in
        let reference = out_tensor (Semantics.reference md env) in
        List.for_all
          (fun dev ->
            let sched = Mdh_lowering.Lower.mdh_default md dev in
            match
              Mdh_lowering.Simulate.run md dev Mdh_lowering.Cost.tuned_codegen sched env
            with
            | Error _ -> false
            | Ok r -> Dense.equal reference (out_tensor r.Mdh_lowering.Simulate.env))
          [ Mdh_machine.Device.a100_like; Mdh_machine.Device.xeon6140_like ])

let prop_parallel_exec_matches =
  QCheck2.Test.make ~name:"fuzz: parallel host execution == reference" ~count:100
    qcheck_sample
    (fun (_, sample) ->
      match transform sample with
      | None -> true
      | Some md ->
        let env = gen_env sample md in
        let reference = out_tensor (Semantics.reference md env) in
        Mdh_runtime.Pool.with_pool ~num_domains:2 (fun pool ->
            match Mdh_runtime.Exec.run pool md (parallel_schedule md) env with
            | Error _ -> false
            | Ok got -> Dense.equal reference (out_tensor got)))

let prop_tuned_schedule_still_correct =
  QCheck2.Test.make ~name:"fuzz: auto-tuned schedule computes the reference" ~count:60
    qcheck_sample
    (fun (_, sample) ->
      match transform sample with
      | None -> true
      | Some md ->
        let env = gen_env sample md in
        let reference = out_tensor (Semantics.reference md env) in
        (match
           Mdh_atf.Tuner.tune ~budget:40 md Mdh_machine.Device.xeon6140_like
             Mdh_lowering.Cost.tuned_codegen
         with
        | Error _ -> false
        | Ok t ->
          let tiles =
            (Mdh_lowering.Schedule.clamp md t.Mdh_atf.Tuner.schedule)
              .Mdh_lowering.Schedule.tile_sizes
          in
          Dense.equal reference
            (out_tensor (Semantics.eval_tiled md env ~tile_sizes:tiles))))

let prop_codegen_total =
  QCheck2.Test.make ~name:"fuzz: codegen succeeds or fails cleanly" ~count:150
    qcheck_sample
    (fun (_, sample) ->
      match transform sample with
      | None -> true
      | Some md ->
        List.for_all
          (fun (dialect, dev) ->
            let sched = Mdh_lowering.Lower.mdh_default md dev in
            match Mdh_codegen.Kernel.generate dialect md dev sched with
            | Ok src -> String.length src > 0
            | Error (Mdh_codegen.Kernel.Unsupported _) -> true
            | Error (Mdh_codegen.Kernel.Illegal_schedule _) -> false)
          [ (Mdh_codegen.Kernel.cuda, Mdh_machine.Device.a100_like);
            (Mdh_codegen.Kernel.opencl, Mdh_machine.Device.xeon6140_like) ])

let prop_validation_total =
  (* validation itself must never raise on generator output *)
  QCheck2.Test.make ~name:"fuzz: validation is total" ~count:500 qcheck_sample
    (fun (_, sample) ->
      match Mdh_directive.Validate.run sample.dir with Ok () | Error _ -> true)

let prop_analyzer_agrees_with_validate =
  (* the accumulating analyzer and the fail-fast validator must agree:
     an analysis without error-severity diagnostics means Validate.check
     passes, and a Validate failure means the analyzer reports it — with
     the validator's own code first (generator operators are honestly
     declared builtins, so operator verification cannot diverge) *)
  QCheck2.Test.make ~name:"fuzz: analyzer agrees with Validate.check" ~count:300
    qcheck_sample
    (fun (_, sample) ->
      let module Diag = Mdh_analysis.Diagnostic in
      let ds = Mdh_analysis.Analyze.directive sample.dir in
      let first_error =
        List.find_opt (fun d -> d.Diag.severity = Diag.Error) ds
      in
      match (Mdh_directive.Validate.check sample.dir, first_error) with
      | Ok (), None -> true
      | Ok (), Some _ -> false
      | Error _, None -> false
      | Error e, Some d ->
        String.equal (Mdh_directive.Validate.error_code e.Mdh_directive.Validate.kind)
          d.Diag.code)

(* The fast backends on fp32: the walker and the specializer must take
   every sample (all operators are builtins), Fastpath the ones a kernel
   matches — every one when [kernel] is set; all must agree with the
   reference bit for bit, under [schedule] (default: every parallelisable
   dim parallel). *)
let fp32_backends_agree ?mag ?(schedule = fun md _dev -> parallel_schedule md) ~kernel sample =
  match transform sample with
  | None -> not kernel
  | Some md ->
    let module Rt = Mdh_runtime in
    let env = gen_env ?mag sample md in
    let reference = out_tensor (Semantics.reference md env) in
    let same = function Some got -> Dense.equal reference (out_tensor got) | None -> false in
    Rt.Pool.with_pool ~num_domains:1 (fun pool ->
        let dev = Rt.Exec.host_device pool in
        match Mdh_lowering.Plan_cache.build md dev (schedule md dev) with
        | Error _ -> false
        | Ok plan ->
          same
            (Result.to_option
               (Rt.Exec.run_with_plan ~fastpath:false ~specialize:false pool plan md env))
          && same (Rt.Specializer.try_run pool plan md env)
          &&
          match Rt.Fastpath.try_run pool plan md env with
          | None -> not kernel
          | got -> same got)

let prop_fp32_backends =
  QCheck2.Test.make ~name:"fuzz: fp32 reference == walker == specializer == fastpath"
    ~count:150 (qcheck_sample_of Scalar.Fp32)
    (fun (_, sample) -> fp32_backends_agree ~kernel:false sample)

(* Long rows under random legal schedules: the specializer's 256-point
   leaf blocks and the pool's ranges split rows part-way, and cache tiles
   leave the leaf on a tile's inner loop. *)
let prop_fp32_blocks =
  QCheck2.Test.make ~name:"fuzz: fp32 long rows and tiled schedules agree on every backend"
    ~count:60 QCheck2.Gen.(int_range 0 1_000_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let sample = gen_sample ~long:true Scalar.Fp32 rng in
      let schedule md dev =
        let rec draw n =
          match Test_plan_exec.random_schedule rng md dev with
          | Some s -> s
          | None -> if n = 0 then parallel_schedule md else draw (n - 1)
        in
        draw 20
      in
      fp32_backends_agree ~mag:2 ~schedule ~kernel:false sample)

(* Random samples almost never take a kernel's exact shape, so this family
   builds them: dot, matvec and matmul at random extents, with the product's
   operands in either order. *)
let gen_kernel_sample rng =
  let e () = Rng.int_in rng 1 6 in
  let mul x y = if Rng.bool rng then Expr.(x * y) else Expr.(y * x) in
  let read b ds = Expr.read b (List.map Expr.idx ds) in
  let fadd = Combine.pw (Combine.add Scalar.Fp32) in
  let dims, extents, ops, out, value =
    match Rng.int rng 3 with
    | 0 ->
      ([ "k" ], [| e () |], [ fadd ], [ Expr.int 0 ], mul (read "in0" [ "k" ]) (read "in1" [ "k" ]))
    | 1 ->
      ( [ "i"; "k" ], [| e (); e () |], [ Combine.cc; fadd ], [ Expr.idx "i" ],
        mul (read "in0" [ "i"; "k" ]) (read "in1" [ "k" ]) )
    | _ ->
      ( [ "i"; "j"; "k" ], [| e (); e (); e () |], [ Combine.cc; Combine.cc; fadd ],
        [ Expr.idx "i"; Expr.idx "j" ],
        mul (read "in0" [ "i"; "k" ]) (read "in1" [ "k"; "j" ]) )
  in
  let nest =
    List.fold_right2 D.for_ dims (Array.to_list extents) (D.body [ D.assign "out" out value ])
  in
  let input_names = [ "in0"; "in1" ] in
  { dir =
      D.make ~name:"kernel_fuzz" ~out:[ D.buffer "out" Scalar.Fp32 ]
        ~inp:(List.map (fun n -> D.buffer n Scalar.Fp32) input_names)
        ~combine_ops:ops nest;
    extents; input_names; tile_sizes = extents; seed = Rng.int rng 1_000_000 }

let prop_fp32_kernels =
  QCheck2.Test.make ~name:"fuzz: fp32 kernel shapes agree on every backend" ~count:60
    QCheck2.Gen.(int_range 0 1_000_000_000)
    (fun seed -> fp32_backends_agree ~kernel:true (gen_kernel_sample (Rng.create seed)))

(* --- record-typed computations with a custom combine operator (the PRL
   shape): two int32 fields, reduced with an associative lexicographic-max
   operator --- *)

let pair_ty = Scalar.Record [ ("a", Scalar.Int32); ("b", Scalar.Int32) ]

let lex_max =
  Combine.custom ~name:"lex_max" ~associative:true (fun lhs rhs ->
      let a v = Scalar.to_int (Scalar.field v "a") in
      let b v = Scalar.to_int (Scalar.field v "b") in
      if a lhs > a rhs then lhs
      else if a lhs < a rhs then rhs
      else if b lhs >= b rhs then lhs
      else rhs)

let gen_record_sample rng =
  let n = Rng.int_in rng 1 6 and m = Rng.int_in rng 1 6 in
  let value =
    (* a = a score over both record fields; b = a tag derived from indices *)
    Expr.MkRecord
      [ ("a",
         Expr.(
           field (read "db" [ idx "i"; idx "j" ]) "a"
           + (int (Rng.int_in rng 1 3) * field (read "db" [ idx "i"; idx "j" ]) "b")));
        ("b", Expr.((int 10 * idx "i") + idx "j")) ]
  in
  let dir =
    D.make ~name:"record_fuzz"
      ~out:[ D.buffer "best" pair_ty ]
      ~inp:[ D.buffer "db" pair_ty ]
      ~combine_ops:[ Combine.cc; Combine.pw lex_max ]
      (D.for_ "i" n
         (D.for_ "j" m (D.body [ D.assign "best" [ Expr.idx "i" ] value ])))
  in
  let tiles = [| Rng.int_in rng 1 (n + 1); Rng.int_in rng 1 (m + 1) |] in
  (dir, n, m, tiles, Rng.int rng 1_000_000)

let out_tensor_named md env name evaluator =
  Buffer.data (Buffer.env_find (evaluator md env) name)

let prop_record_cross_evaluator =
  QCheck2.Test.make ~name:"fuzz: record types across evaluators" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dir, n, m, tiles, data_seed = gen_record_sample rng in
      match Mdh_directive.Transform.to_md_hom dir with
      | Error _ -> false (* this family is always valid *)
      | Ok md ->
        let data_rng = Rng.create data_seed in
        let env =
          Buffer.env_of_list
            [ Buffer.of_dense "db"
                (Dense.of_fn pair_ty [| n; m |] (fun _ ->
                     Scalar.R
                       [ ("a", Scalar.i32 (Rng.int_in data_rng (-9) 9));
                         ("b", Scalar.i32 (Rng.int_in data_rng (-9) 9)) ])) ]
        in
        let reference = out_tensor_named md env "best" Semantics.reference in
        let exec = out_tensor_named md env "best" Semantics.exec in
        let tiled =
          Buffer.data
            (Buffer.env_find (Semantics.eval_tiled md env ~tile_sizes:tiles) "best")
        in
        Dense.equal reference exec && Dense.equal reference tiled)

let prop_record_codegen =
  QCheck2.Test.make ~name:"fuzz: record computations generate kernels" ~count:50
    QCheck2.Gen.(int_range 0 1_000_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let dir, _, _, _, _ = gen_record_sample rng in
      match Mdh_directive.Transform.to_md_hom dir with
      | Error _ -> false
      | Ok md ->
        let dev = Mdh_machine.Device.a100_like in
        let sched = Mdh_lowering.Lower.mdh_default md dev in
        (match Mdh_codegen.Kernel.generate Mdh_codegen.Kernel.cuda md dev sched with
        | Ok src ->
          (* the custom operator survives into the source by name *)
          Test_util.contains src "mdh_combine_lex_max"
        | Error _ -> false))

let suite =
  ( "fuzz",
    [ QCheck_alcotest.to_alcotest prop_validation_total;
      QCheck_alcotest.to_alcotest prop_analyzer_agrees_with_validate;
      QCheck_alcotest.to_alcotest prop_cross_evaluator;
      QCheck_alcotest.to_alcotest prop_simulation_matches;
      QCheck_alcotest.to_alcotest prop_parallel_exec_matches;
      QCheck_alcotest.to_alcotest prop_fp32_backends;
      QCheck_alcotest.to_alcotest prop_fp32_kernels;
      QCheck_alcotest.to_alcotest prop_fp32_blocks;
      QCheck_alcotest.to_alcotest prop_tuned_schedule_still_correct;
      QCheck_alcotest.to_alcotest prop_codegen_total;
      QCheck_alcotest.to_alcotest prop_record_cross_evaluator;
      QCheck_alcotest.to_alcotest prop_record_codegen ] )
