(* Unit and property tests for Mdh_tensor: scalar, shape, index_fn, dense,
   buffer. *)

open Mdh_tensor

let check = Alcotest.check

(* --- Scalar --- *)

let test_scalar_roundtrip_f32 () =
  let v = Scalar.f32 1.1 in
  check Alcotest.bool "f32 rounds" true
    (Scalar.to_float v <> 1.1 && Mdh_support.Util.float_equal ~rel:1e-6 (Scalar.to_float v) 1.1)

let test_scalar_zero () =
  check Test_util.scalar_value "fp32 zero" (Scalar.F32 0.0) (Scalar.zero Scalar.Fp32);
  check Test_util.scalar_value "record zero"
    (Scalar.R [ ("a", Scalar.I32 0l); ("b", Scalar.F64 0.0) ])
    (Scalar.zero (Scalar.Record [ ("a", Scalar.Int32); ("b", Scalar.Fp64) ]))

let test_scalar_size_bytes () =
  check Alcotest.int "fp32" 4 (Scalar.size_bytes Scalar.Fp32);
  check Alcotest.int "record" 13
    (Scalar.size_bytes
       (Scalar.Record [ ("a", Scalar.Int64); ("b", Scalar.Fp32); ("c", Scalar.Bool) ]))

let test_scalar_arith () =
  check Test_util.scalar_value "add f64" (Scalar.F64 3.5)
    (Scalar.add (Scalar.F64 1.5) (Scalar.F64 2.0));
  check Test_util.scalar_value "mul i32" (Scalar.i32 42)
    (Scalar.mul (Scalar.i32 6) (Scalar.i32 7));
  check Test_util.scalar_value "min" (Scalar.i64 2)
    (Scalar.min_v (Scalar.i64 5) (Scalar.i64 2));
  check Test_util.scalar_value "max" (Scalar.i64 5)
    (Scalar.max_v (Scalar.i64 5) (Scalar.i64 2));
  check Test_util.scalar_value "neg" (Scalar.F64 (-2.0)) (Scalar.neg (Scalar.F64 2.0))

let test_scalar_arith_mismatch () =
  Alcotest.check_raises "i32+f64"
    (Invalid_argument "Scalar.add: type mismatch (1l, 2)") (fun () ->
      ignore (Scalar.add (Scalar.i32 1) (Scalar.F64 2.0)))

let test_scalar_field () =
  let r = Scalar.R [ ("x", Scalar.i32 1); ("y", Scalar.F64 2.0) ] in
  check Test_util.scalar_value "get" (Scalar.i32 1) (Scalar.field r "x");
  let r' = Scalar.set_field r "y" (Scalar.F64 9.0) in
  check Test_util.scalar_value "set" (Scalar.F64 9.0) (Scalar.field r' "y");
  check Test_util.scalar_value "old intact" (Scalar.F64 2.0) (Scalar.field r "y")

let test_scalar_type_of_value () =
  check Alcotest.bool "record type" true
    (Scalar.equal_ty
       (Scalar.type_of_value (Scalar.R [ ("a", Scalar.f32 0.0) ]))
       (Scalar.Record [ ("a", Scalar.Fp32) ]))

let test_scalar_f32_rounding_in_arith () =
  (* fp32 addition must round intermediates: 1 + 2^-30 is 1 in fp32 *)
  let v = Scalar.add (Scalar.f32 1.0) (Scalar.f32 (2.0 ** -30.0)) in
  check Test_util.scalar_value "rounds to 1" (Scalar.f32 1.0) v

(* --- Shape --- *)

let test_shape_linearize_roundtrip () =
  let shape = [| 3; 4; 5 |] in
  Shape.iter shape (fun idx ->
      let lin = Shape.linearize shape idx in
      check (Alcotest.array Alcotest.int) "roundtrip" idx (Shape.delinearize shape lin))

let test_shape_linearize_rowmajor () =
  check Alcotest.int "row major" 7 (Shape.linearize [| 3; 5 |] [| 1; 2 |])

let test_shape_iter_order () =
  let acc = ref [] in
  Shape.iter [| 2; 2 |] (fun idx -> acc := Array.copy idx :: !acc);
  check
    (Alcotest.list (Alcotest.array Alcotest.int))
    "lexicographic"
    [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]
    (List.rev !acc)

let test_shape_iter_count () =
  let n = ref 0 in
  Shape.iter [| 3; 4; 5 |] (fun _ -> incr n);
  check Alcotest.int "count" 60 !n

let test_shape_bounds () =
  Alcotest.check_raises "oob"
    (Invalid_argument "Shape.linearize: index 3 out of bounds [0,3) in dimension 0")
    (fun () -> ignore (Shape.linearize [| 3 |] [| 3 |]))

let test_shape_scalar () =
  check Alcotest.int "scalar elements" 1 (Shape.num_elements [||]);
  check Alcotest.int "scalar offset" 0 (Shape.linearize [||] [||])

(* --- Index_fn --- *)

let test_index_identity () =
  let fn = Index_fn.identity 3 in
  check (Alcotest.array Alcotest.int) "id" [| 1; 2; 3 |] (Index_fn.apply fn [| 1; 2; 3 |])

let test_index_select () =
  let fn = Index_fn.select ~arity:2 [ 1 ] in
  check (Alcotest.array Alcotest.int) "select k" [| 9 |] (Index_fn.apply fn [| 4; 9 |])

let test_index_shifted () =
  let fn = Index_fn.shifted ~arity:1 [ (0, -1); (0, 0); (0, 1) ] in
  check (Alcotest.array Alcotest.int) "stencil" [| 4; 5; 6 |] (Index_fn.apply fn [| 5 |])

let test_index_affine_strided () =
  (* (p, r) -> (2p + r), the MCC access pattern *)
  let fn =
    Index_fn.affine ~arity:2 [ Index_fn.coord ~coeffs:[| 2; 1 |] ~offset:0 ]
  in
  check (Alcotest.array Alcotest.int) "2p+r" [| 11 |] (Index_fn.apply fn [| 4; 3 |])

let test_injective_identity () =
  check (Alcotest.option Alcotest.bool) "id injective" (Some true)
    (Index_fn.injective_on (Index_fn.identity 2) [| 5; 7 |])

let test_injective_select_drops () =
  (* (i,k) -> (k) is not injective when I > 1: the "Non-Inj." MatVec entry *)
  check (Alcotest.option Alcotest.bool) "select non-injective" (Some false)
    (Index_fn.injective_on (Index_fn.select ~arity:2 [ 1 ]) [| 5; 7 |]);
  (* ... but injective when the dropped dimension has extent 1 *)
  check (Alcotest.option Alcotest.bool) "trivial dim" (Some true)
    (Index_fn.injective_on (Index_fn.select ~arity:2 [ 1 ]) [| 1; 7 |])

let test_injective_strided_overlap () =
  (* 2p+r with r in [0,3): overlapping windows, not injective *)
  let fn = Index_fn.affine ~arity:2 [ Index_fn.coord ~coeffs:[| 2; 1 |] ~offset:0 ] in
  check (Alcotest.option Alcotest.bool) "overlap" (Some false)
    (Index_fn.injective_on fn [| 10; 3 |]);
  (* 2p+r with r in [0,2): exact cover, injective *)
  check (Alcotest.option Alcotest.bool) "exact" (Some true)
    (Index_fn.injective_on fn [| 10; 2 |])

let test_injective_strided_output () =
  (* i -> 3i: strided output, injective *)
  let fn = Index_fn.affine ~arity:1 [ Index_fn.coord ~coeffs:[| 3 |] ~offset:0 ] in
  check (Alcotest.option Alcotest.bool) "strided" (Some true)
    (Index_fn.injective_on fn [| 100 |])

let test_injective_unimodular () =
  (* (i,j) -> (i+j, i+2j): determinant 1, injective on the lattice *)
  let fn =
    Index_fn.affine ~arity:2
      [ Index_fn.coord ~coeffs:[| 1; 1 |] ~offset:0;
        Index_fn.coord ~coeffs:[| 1; 2 |] ~offset:0 ]
  in
  check (Alcotest.option Alcotest.bool) "unimodular" (Some true)
    (Index_fn.injective_on fn [| 50; 50 |])

let test_injective_large_unused_dim () =
  (* large space, unused dim: decided without brute force *)
  let fn = Index_fn.select ~arity:2 [ 1 ] in
  check (Alcotest.option Alcotest.bool) "large non-inj" (Some false)
    (Index_fn.injective_on fn [| 100000; 100000 |])

let test_injective_large_overlap () =
  let fn = Index_fn.affine ~arity:2 [ Index_fn.coord ~coeffs:[| 2; 1 |] ~offset:0 ] in
  check (Alcotest.option Alcotest.bool) "large overlap" (Some false)
    (Index_fn.injective_on fn [| 1000000; 3 |])

let test_injective_opaque () =
  let fn = Index_fn.opaque ~arity:1 ~out_rank:1 (fun p -> [| p.(0) |]) in
  check (Alcotest.option Alcotest.bool) "opaque undecidable" None
    (Index_fn.injective_on fn [| 10 |])

let test_uses_dim () =
  let fn = Index_fn.select ~arity:3 [ 0; 2 ] in
  check (Alcotest.option Alcotest.bool) "uses 0" (Some true) (Index_fn.uses_dim fn 0);
  check (Alcotest.option Alcotest.bool) "skips 1" (Some false) (Index_fn.uses_dim fn 1);
  check (Alcotest.option Alcotest.bool) "uses 2" (Some true) (Index_fn.uses_dim fn 2)

let test_footprint () =
  (* MatVec matrix access touches I*K elements *)
  check Alcotest.int "matrix" 12 (Index_fn.footprint (Index_fn.identity 2) [| 3; 4 |]);
  (* vector access (i,k)->(k) touches K elements *)
  check Alcotest.int "vector" 4
    (Index_fn.footprint (Index_fn.select ~arity:2 [ 1 ]) [| 3; 4 |])

let test_max_min_index () =
  let fn = Index_fn.shifted ~arity:1 [ (0, -1); (0, 1) ] in
  check (Alcotest.array Alcotest.int) "max" [| 8; 10 |] (Index_fn.max_index fn [| 10 |]);
  check (Alcotest.array Alcotest.int) "min" [| -1; 1 |] (Index_fn.min_index fn [| 10 |])

(* brute-force injectivity oracle vs the analysis, on random affine maps *)
let prop_injectivity_matches_oracle =
  let gen =
    QCheck2.Gen.(
      let* arity = int_range 1 3 in
      let* out_rank = int_range 1 3 in
      let* coords =
        list_size (return out_rank)
          (list_size (return arity) (int_range (-2) 3))
      in
      let* extents = list_size (return arity) (int_range 1 5) in
      return (arity, coords, Array.of_list extents))
  in
  QCheck2.Test.make ~name:"injectivity analysis matches brute force" ~count:300 gen
    (fun (arity, coords, extents) ->
      let fn =
        Index_fn.affine ~arity
          (List.map
             (fun cs -> Index_fn.coord ~coeffs:(Array.of_list cs) ~offset:0)
             coords)
      in
      let analysed = Index_fn.injective_on fn extents in
      let seen = Hashtbl.create 64 in
      let brute = ref true in
      Shape.iter extents (fun p ->
          let out = Array.to_list (Index_fn.apply fn p) in
          if Hashtbl.mem seen out then brute := false else Hashtbl.add seen out ());
      match analysed with Some b -> b = !brute | None -> true)

(* --- Dense --- *)

let test_dense_get_set () =
  let t = Dense.create Scalar.Fp64 [| 2; 3 |] in
  Dense.set t [| 1; 2 |] (Scalar.F64 5.0);
  check Test_util.scalar_value "set/get" (Scalar.F64 5.0) (Dense.get t [| 1; 2 |]);
  check Test_util.scalar_value "zero elsewhere" (Scalar.F64 0.0) (Dense.get t [| 0; 0 |])

let test_dense_of_fn () =
  let t =
    Dense.of_fn Scalar.Int32 [| 2; 2 |] (fun idx -> Scalar.i32 ((10 * idx.(0)) + idx.(1)))
  in
  check Test_util.scalar_value "elt" (Scalar.i32 11) (Dense.get t [| 1; 1 |])

let test_dense_slice () =
  let t = Dense.of_fn Scalar.Int32 [| 4 |] (fun idx -> Scalar.i32 idx.(0)) in
  let s = Dense.slice t ~dim:0 ~lo:1 ~len:2 in
  check (Alcotest.array Alcotest.int) "shape" [| 2 |] (Dense.shape s);
  check Test_util.scalar_value "content" (Scalar.i32 2) (Dense.get s [| 1 |])

let test_dense_concat () =
  let a = Dense.of_fn Scalar.Int32 [| 2; 2 |] (fun i -> Scalar.i32 i.(1)) in
  let b = Dense.of_fn Scalar.Int32 [| 2; 1 |] (fun _ -> Scalar.i32 9) in
  let c = Dense.concat ~dim:1 a b in
  check (Alcotest.array Alcotest.int) "shape" [| 2; 3 |] (Dense.shape c);
  check Test_util.scalar_value "left" (Scalar.i32 1) (Dense.get c [| 0; 1 |]);
  check Test_util.scalar_value "right" (Scalar.i32 9) (Dense.get c [| 1; 2 |])

let test_dense_concat_mismatch () =
  let a = Dense.create Scalar.Int32 [| 2; 2 |] in
  let b = Dense.create Scalar.Int32 [| 3; 1 |] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Dense.concat: extents disagree off the concat dimension")
    (fun () -> ignore (Dense.concat ~dim:1 a b))

let test_dense_scan () =
  let t = Dense.of_fn Scalar.Int32 [| 4 |] (fun idx -> Scalar.i32 (idx.(0) + 1)) in
  let s = Dense.scan ~dim:0 Scalar.add t in
  let expect = Dense.of_fn Scalar.Int32 [| 4 |] (fun idx ->
      Scalar.i32 (List.fold_left ( + ) 0 (List.init (idx.(0) + 1) (fun i -> i + 1))))
  in
  check Test_util.dense "inclusive scan" expect s

let test_dense_scan_2d () =
  let t = Dense.of_fn Scalar.Int32 [| 2; 3 |] (fun i -> Scalar.i32 ((i.(0) * 3) + i.(1))) in
  let s = Dense.scan ~dim:1 Scalar.add t in
  check Test_util.scalar_value "row 0" (Scalar.i32 3) (Dense.get s [| 0; 2 |]);
  check Test_util.scalar_value "row 1" (Scalar.i32 12) (Dense.get s [| 1; 2 |])

let test_dense_reduce () =
  let t = Dense.of_fn Scalar.Int32 [| 2; 3 |] (fun i -> Scalar.i32 ((i.(0) * 3) + i.(1))) in
  let r = Dense.reduce ~dim:1 Scalar.add t in
  check (Alcotest.array Alcotest.int) "shape" [| 2; 1 |] (Dense.shape r);
  check Test_util.scalar_value "sum row 1" (Scalar.i32 12) (Dense.get r [| 1; 0 |])

let test_dense_map2 () =
  let a = Dense.of_fn Scalar.Int32 [| 3 |] (fun i -> Scalar.i32 i.(0)) in
  let b = Dense.of_fn Scalar.Int32 [| 3 |] (fun _ -> Scalar.i32 10) in
  let c = Dense.map2 Scalar.add a b in
  check Test_util.scalar_value "sum" (Scalar.i32 12) (Dense.get c [| 2 |])

let test_dense_copy_isolated () =
  let a = Dense.create Scalar.Int32 [| 2 |] in
  let b = Dense.copy a in
  Dense.set b [| 0 |] (Scalar.i32 9);
  check Test_util.scalar_value "original intact" (Scalar.i32 0) (Dense.get a [| 0 |])

(* --- Typed storage --- *)

let bits x = Int64.bits_of_float x

let point_ty = Scalar.Record [ ("x", Scalar.Fp32); ("id", Scalar.Int32) ]
let point x id = Scalar.R [ ("x", Scalar.F32 x); ("id", Scalar.i32 id) ]

(* Values at the edges of each type, one tensor per type. *)
let samples =
  [ (Scalar.Fp32, [ Scalar.f32 1.1; F32 (-0.0); F32 infinity; Scalar.f32 (-3.5e38) ]);
    (Fp64, [ F64 0.1; F64 (-0.0); F64 nan; F64 Float.max_float ]);
    (Int32, [ I32 Int32.max_int; I32 Int32.min_int; I32 0l; I32 (-7l) ]);
    (Int64, [ I64 Int64.max_int; I64 Int64.min_int; I64 0L; I64 (-7L) ]);
    (Bool, [ B true; B false; B true; B true ]);
    (Char, [ C 'a'; C '\000'; C '\255'; C '\n' ]);
    (point_ty, [ point 1.5 1; point (-2.0) 2; point 0.0 3; point 8.0 4 ]) ]

let test_dense_roundtrip_every_type () =
  List.iter
    (fun (ty, values) ->
      let name = Scalar.ty_to_string ty in
      let d = Dense.create ty [| 2; 2 |] in
      check Test_util.scalar_value (name ^ " zero") (Scalar.zero ty) (Dense.get d [| 1; 1 |]);
      List.iteri (fun i v -> Dense.set d [| i / 2; i mod 2 |] v) values;
      List.iteri
        (fun i v ->
          check Test_util.scalar_value (name ^ " get") v (Dense.get d [| i / 2; i mod 2 |]);
          check Test_util.scalar_value (name ^ " get_linear") v (Dense.get_linear d i))
        values;
      let e = Dense.copy d in
      Dense.set_linear e 0 (List.nth values 2);
      check Test_util.scalar_value (name ^ " copy is isolated") (List.hd values)
        (Dense.get_linear d 0);
      Dense.fill e (List.hd values);
      check Test_util.scalar_value (name ^ " fill") (List.hd values) (Dense.get_linear e 3);
      check Alcotest.bool (name ^ " equal") true (Dense.equal d (Dense.copy d)))
    samples

(* An F32 whose double is not fp32-rounded is stored as given: the store
   keeps the double, it does not round on the way in. *)
let test_dense_f32_exact_bits () =
  let d = Dense.create Scalar.Fp32 [| 3 |] in
  List.iteri
    (fun i x ->
      Dense.set_linear d i (Scalar.F32 x);
      match Dense.get_linear d i with
      | Scalar.F32 y -> check Alcotest.int64 "same bits" (bits x) (bits y)
      | v -> Alcotest.failf "got %s" (Scalar.value_to_string v))
    [ 1.1; -0.0; 0.1 +. 0.2 ]

let test_dense_set_type_mismatch () =
  let d = Dense.create Scalar.Fp32 [| 2 |] in
  Alcotest.check_raises "f64 in fp32"
    (Invalid_argument "Dense.set: 1 in a fp32 tensor") (fun () ->
      Dense.set_linear d 0 (Scalar.F64 1.0));
  Alcotest.check_raises "floats of int32"
    (Invalid_argument "Dense.floats: int32 tensor") (fun () ->
      ignore (Dense.floats (Dense.create Scalar.Int32 [| 2 |])))

let test_dense_records_boxed () =
  let a = Dense.of_fn point_ty [| 3 |] (fun i -> point (float i.(0)) i.(0)) in
  let b = Dense.of_fn point_ty [| 3 |] (fun i -> point 10.0 (10 * i.(0))) in
  let larger =
    Dense.map2
      (fun u v ->
        if Scalar.to_float (Scalar.field u "x") >= Scalar.to_float (Scalar.field v "x")
        then u else v)
      a b
  in
  check Test_util.scalar_value "map2 keeps whole records" (point 10.0 20)
    (Dense.get larger [| 2 |]);
  let s = Dense.slice a ~dim:0 ~lo:1 ~len:2 in
  check Test_util.scalar_value "slice" (point 2.0 2) (Dense.get s [| 1 |]);
  let c = Dense.concat ~dim:0 s a in
  check Test_util.scalar_value "concat" (point 0.0 0) (Dense.get c [| 2 |]);
  check Alcotest.bool "approx_equal on records" true
    (Dense.approx_equal a (Dense.map2 (fun u _ -> u) a b));
  check Alcotest.bool "records differ" false (Dense.equal a b)

let test_dense_float_fast_paths () =
  let a = Dense.of_fn Scalar.Fp32 [| 4 |] (fun i -> Scalar.f32 (float i.(0))) in
  let b = Dense.map2 Scalar.add a a in
  check Test_util.scalar_value "map2" (Scalar.f32 6.0) (Dense.get_linear b 3);
  check Alcotest.bool "approx within tolerance" true
    (Dense.approx_equal ~rel:1e-3 a
       (Dense.map2 (fun x _ -> Scalar.f32 (Scalar.to_float x *. 1.0001)) a a));
  check Alcotest.bool "approx outside tolerance" false (Dense.approx_equal a b);
  let f64 = Dense.of_fn Scalar.Fp64 [| 4 |] (fun i -> Scalar.F64 (float i.(0))) in
  check Alcotest.bool "fp32 never equals fp64" false (Dense.equal a f64)

let test_dense_zero_copy () =
  let d = Dense.create Scalar.Fp32 [| 4 |] in
  check Alcotest.bool "floats is the store" true (Dense.floats d == Dense.floats d);
  Dense.set_linear d 1 (Scalar.f32 2.5);
  check (Alcotest.float 0.0) "writes are seen" 2.5 (Dense.floats d).(1);
  let a = [| 1.1; 2.0 |] in
  let e = Dense.of_floats Scalar.Fp32 [| 2 |] a in
  check Alcotest.bool "of_floats adopts" true (Dense.floats e == a);
  check Alcotest.int64 "adopted fp32 is rounded in place" (bits (Scalar.round_f32 1.1))
    (bits a.(0));
  let w = Option.get (Mdh_workloads.Catalog.find "dot") in
  let module W = Mdh_workloads.Workload in
  let md = W.to_md_hom w w.W.test_params in
  let env = w.W.gen w.W.test_params ~seed:4 in
  match Mdh_runtime.Specializer.bind md env with
  | None -> Alcotest.fail "dot inputs did not bind"
  | Some bufs ->
    List.iteri
      (fun k (i : Mdh_core.Md_hom.input) ->
        check Alcotest.bool (i.inp_name ^ " bound in place") true
          (bufs.(k) == Dense.floats (Buffer.data (Buffer.env_find env i.inp_name))))
      md.inputs

(* Backends run on the caller's stores, and a caller may reuse one input
   env across requests: no backend may write to an input. The compiled-C
   backend is left out: it only ever serialises inputs to files. *)
let test_catalogue_inputs_untouched () =
  let module W = Mdh_workloads.Workload in
  let module Rt = Mdh_runtime in
  Rt.Pool.with_pool ~num_domains:1 (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:9 in
          let data (i : Mdh_core.Md_hom.input) = Buffer.data (Buffer.env_find env i.inp_name) in
          let before = List.map (fun i -> Dense.copy (data i)) md.inputs in
          let sched =
            { (Mdh_lowering.Schedule.sequential md) with
              Mdh_lowering.Schedule.parallel_dims = Mdh_lowering.Lower.parallelisable_dims md }
          in
          (match Mdh_lowering.Plan_cache.build md (Rt.Exec.host_device pool) sched with
          | Error e -> Alcotest.fail e
          | Ok plan ->
            ignore (Rt.Fastpath.try_run pool plan md env);
            ignore (Rt.Specializer.try_run pool plan md env);
            ignore (Rt.Exec.run_with_plan ~fastpath:false ~specialize:false pool plan md env);
            ignore (Mdh_core.Semantics.exec md env));
          List.iter2
            (fun (i : Mdh_core.Md_hom.input) d ->
              check Alcotest.bool
                (String.lowercase_ascii w.W.wl_name ^ ": " ^ i.inp_name ^ " unchanged")
                true
                (Dense.equal d (data i)))
            md.inputs before)
        Mdh_workloads.Catalog.all)

(* --- Buffer --- *)

let test_buffer_env () =
  let a = Buffer.create "a" Scalar.Fp32 [| 2 |] in
  let b = Buffer.create "b" Scalar.Fp64 [| 3 |] in
  let env = Buffer.env_of_list [ a; b ] in
  check (Alcotest.list Alcotest.string) "names" [ "a"; "b" ] (Buffer.env_names env);
  check Alcotest.bool "mem" true (Buffer.env_mem env "a");
  check Alcotest.bool "not mem" false (Buffer.env_mem env "c")

let test_buffer_env_duplicate () =
  let a = Buffer.create "a" Scalar.Fp32 [| 2 |] in
  Alcotest.check_raises "dup"
    (Invalid_argument "Buffer.env_of_list: duplicate buffer \"a\"") (fun () ->
      ignore (Buffer.env_of_list [ a; a ]))

let test_buffer_size_bytes () =
  let b = Buffer.create "b" Scalar.Fp32 [| 10; 10 |] in
  check Alcotest.int "bytes" 400 (Buffer.size_bytes b)

let suite =
  let tc = Alcotest.test_case in
  ( "tensor",
    [ tc "scalar f32 rounding" `Quick test_scalar_roundtrip_f32;
      tc "scalar zero" `Quick test_scalar_zero;
      tc "scalar size_bytes" `Quick test_scalar_size_bytes;
      tc "scalar arith" `Quick test_scalar_arith;
      tc "scalar arith mismatch" `Quick test_scalar_arith_mismatch;
      tc "scalar record fields" `Quick test_scalar_field;
      tc "scalar type_of_value" `Quick test_scalar_type_of_value;
      tc "scalar f32 arith rounds" `Quick test_scalar_f32_rounding_in_arith;
      tc "shape linearize roundtrip" `Quick test_shape_linearize_roundtrip;
      tc "shape row major" `Quick test_shape_linearize_rowmajor;
      tc "shape iter order" `Quick test_shape_iter_order;
      tc "shape iter count" `Quick test_shape_iter_count;
      tc "shape bounds" `Quick test_shape_bounds;
      tc "shape scalar" `Quick test_shape_scalar;
      tc "index identity" `Quick test_index_identity;
      tc "index select" `Quick test_index_select;
      tc "index shifted" `Quick test_index_shifted;
      tc "index strided" `Quick test_index_affine_strided;
      tc "injective identity" `Quick test_injective_identity;
      tc "injective select drops" `Quick test_injective_select_drops;
      tc "injective strided overlap" `Quick test_injective_strided_overlap;
      tc "injective strided output" `Quick test_injective_strided_output;
      tc "injective unimodular" `Quick test_injective_unimodular;
      tc "injective large unused" `Quick test_injective_large_unused_dim;
      tc "injective large overlap" `Quick test_injective_large_overlap;
      tc "injective opaque" `Quick test_injective_opaque;
      tc "uses_dim" `Quick test_uses_dim;
      tc "footprint" `Quick test_footprint;
      tc "max/min index" `Quick test_max_min_index;
      QCheck_alcotest.to_alcotest prop_injectivity_matches_oracle;
      tc "dense get/set" `Quick test_dense_get_set;
      tc "dense of_fn" `Quick test_dense_of_fn;
      tc "dense slice" `Quick test_dense_slice;
      tc "dense concat" `Quick test_dense_concat;
      tc "dense concat mismatch" `Quick test_dense_concat_mismatch;
      tc "dense scan" `Quick test_dense_scan;
      tc "dense scan 2d" `Quick test_dense_scan_2d;
      tc "dense reduce" `Quick test_dense_reduce;
      tc "dense map2" `Quick test_dense_map2;
      tc "dense copy isolated" `Quick test_dense_copy_isolated;
      tc "dense round-trip every type" `Quick test_dense_roundtrip_every_type;
      tc "dense f32 keeps exact bits" `Quick test_dense_f32_exact_bits;
      tc "dense set type mismatch" `Quick test_dense_set_type_mismatch;
      tc "dense records stay boxed" `Quick test_dense_records_boxed;
      tc "dense float fast paths" `Quick test_dense_float_fast_paths;
      tc "dense zero-copy bind" `Quick test_dense_zero_copy;
      tc "dense catalogue inputs untouched" `Slow test_catalogue_inputs_untouched;
      tc "buffer env" `Quick test_buffer_env;
      tc "buffer env duplicate" `Quick test_buffer_env_duplicate;
      tc "buffer size bytes" `Quick test_buffer_size_bytes ] )
