(* Tests for the domain pool, parallel primitives, float kernels, and the
   parallel plan executor. *)

module W = Mdh_workloads.Workload
module Buffer = Mdh_tensor.Buffer
module Schedule = Mdh_lowering.Schedule
open Mdh_runtime

let check = Alcotest.check

let with_pool f = Pool.with_pool ~num_domains:3 f

let test_parallel_for_covers_all () =
  with_pool (fun pool ->
      let n = 100_000 in
      let hits = Array.make n 0 in
      Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
      check Alcotest.bool "each index exactly once" true
        (Array.for_all (( = ) 1) hits))

let test_parallel_for_empty () =
  with_pool (fun pool ->
      let hit = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> hit := true);
      check Alcotest.bool "no iterations" false !hit)

let test_parallel_for_exception_propagates () =
  with_pool (fun pool ->
      check Alcotest.bool "raises" true
        (try
           Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:100 (fun i ->
               if i = 37 then failwith "boom");
           false
         with Failure m -> m = "boom"))

let test_parallel_reduce_sum () =
  with_pool (fun pool ->
      let n = 1_000_000 in
      let total =
        Pool.parallel_reduce pool ~lo:0 ~hi:n
          ~chunk:(fun start stop ->
            let acc = ref 0 in
            for i = start to stop - 1 do acc := !acc + i done;
            !acc)
          ~combine:( + ) 0
      in
      check Alcotest.int "gauss" (n * (n - 1) / 2) total)

let test_parallel_reduce_ordered () =
  (* string concatenation is associative but not commutative: chunk order
     must be preserved *)
  with_pool (fun pool ->
      let n = 500 in
      let s =
        Pool.parallel_reduce pool ~grain:7 ~lo:0 ~hi:n
          ~chunk:(fun start stop ->
            String.concat ""
              (List.init (stop - start) (fun k -> string_of_int ((start + k) mod 10))))
          ~combine:( ^ ) ""
      in
      let expected = String.concat "" (List.init n (fun i -> string_of_int (i mod 10))) in
      check Alcotest.string "in order" expected s)

let test_scan_matches_sequential () =
  with_pool (fun pool ->
      let rng = Mdh_support.Rng.create 1 in
      let xs = Array.init 10_001 (fun _ -> Mdh_support.Rng.int rng 100 - 50) in
      let expected =
        let out = Array.make (Array.length xs) 0 in
        let acc = ref 0 in
        Array.iteri (fun i x -> acc := !acc + x; out.(i) <- !acc) xs;
        out
      in
      check (Alcotest.array Alcotest.int) "scan" expected
        (Pool.scan_inclusive pool ( + ) xs))

let test_scan_singleton_and_empty () =
  with_pool (fun pool ->
      check (Alcotest.array Alcotest.int) "empty" [||] (Pool.scan_inclusive pool ( + ) [||]);
      check (Alcotest.array Alcotest.int) "one" [| 7 |] (Pool.scan_inclusive pool ( + ) [| 7 |]))

let test_run_in_parallel_order () =
  with_pool (fun pool ->
      let thunks = Array.init 20 (fun i () -> i * i) in
      check (Alcotest.array Alcotest.int) "ordered results"
        (Array.init 20 (fun i -> i * i))
        (Pool.run_in_parallel pool thunks))

let test_pool_reusable () =
  with_pool (fun pool ->
      for round = 1 to 5 do
        let acc = Atomic.make 0 in
        Pool.parallel_for pool ~lo:0 ~hi:1000 (fun _ -> ignore (Atomic.fetch_and_add acc 1));
        check Alcotest.int (Printf.sprintf "round %d" round) 1000 (Atomic.get acc)
      done)

let test_nested_submission_rejected () =
  with_pool (fun pool ->
      check Alcotest.bool "nested raises" true
        (try
           Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:8 (fun _ ->
               Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:8 (fun _ -> ()));
           false
         with Invalid_argument _ -> true);
      (* the pool stays usable afterwards *)
      let acc = Atomic.make 0 in
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun _ -> ignore (Atomic.fetch_and_add acc 1));
      check Alcotest.int "usable after" 100 (Atomic.get acc))

let test_raising_job_leaves_pool_usable () =
  (* regression: a raising job body used to leave [in_job] set and the job
     installed, poisoning every later submission *)
  with_pool (fun pool ->
      for round = 1 to 3 do
        check Alcotest.bool (Printf.sprintf "raises %d" round) true
          (try
             Pool.run_job pool (fun () -> failwith "boom");
             false
           with Failure m -> m = "boom");
        (* the pool accepts and completes new work after the failure *)
        let acc = Atomic.make 0 in
        Pool.parallel_for pool ~lo:0 ~hi:500 (fun _ -> ignore (Atomic.fetch_and_add acc 1));
        check Alcotest.int (Printf.sprintf "usable %d" round) 500 (Atomic.get acc)
      done)

let test_worker_exception_propagates () =
  (* regression: exceptions on worker domains were silently swallowed; only
     the caller's own share of a job could fail it. The job below raises on
     every domain except the caller's, so the re-raised failure can only
     have come from a worker. *)
  with_pool (fun pool ->
      let caller = Domain.self () in
      check Alcotest.bool "worker failure re-raised" true
        (try
           Pool.run_job pool (fun () ->
               if Domain.self () <> caller then failwith "worker-boom"
               else Unix.sleepf 0.02);
           false
         with Failure m -> m = "worker-boom");
      let acc = Atomic.make 0 in
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun _ -> ignore (Atomic.fetch_and_add acc 1));
      check Alcotest.int "usable after worker failure" 100 (Atomic.get acc))

let test_worker_thunk_exception_propagates () =
  (* run_in_parallel with a thunk that only fails when a worker (not the
     caller) executes it: the caller stalls on its first chunk so the
     workers drain the rest, and the failure must still surface *)
  with_pool (fun pool ->
      let caller = Domain.self () in
      let thunks =
        Array.init 64 (fun _ () ->
            if Domain.self () <> caller then failwith "thunk-boom"
            else Unix.sleepf 0.005)
      in
      check Alcotest.bool "raises" true
        (try
           ignore (Pool.run_in_parallel pool thunks);
           false
         with Failure m -> m = "thunk-boom"))

let test_zero_domain_pool_works () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      check Alcotest.int "workers" 1 (Pool.num_workers pool);
      let acc = ref 0 in
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun i -> acc := !acc + i);
      check Alcotest.int "serial fallback" 4950 !acc)

(* --- kernels --- *)

let rng_floats seed n =
  let rng = Mdh_support.Rng.create seed in
  Array.init n (fun _ -> Mdh_support.Rng.float rng 2.0 -. 1.0)

let farr = Alcotest.testable
    (fun ppf a -> Format.fprintf ppf "[%d floats]" (Array.length a))
    (fun a b ->
      Array.length a = Array.length b
      && Array.for_all2 (fun x y -> Mdh_support.Util.float_equal ~rel:1e-6 ~abs:1e-9 x y) a b)

let test_kernels_dot () =
  with_pool (fun pool ->
      let x = rng_floats 1 10_000 and y = rng_floats 2 10_000 in
      check (Alcotest.float 1e-6) "par = seq" (Kernels.dot_seq x y)
        (Kernels.dot_par pool x y))

let test_kernels_matvec () =
  with_pool (fun pool ->
      let m = 37 and k = 53 in
      let mat = rng_floats 3 (m * k) and v = rng_floats 4 k in
      check farr "par = seq" (Kernels.matvec_seq ~m ~k mat v)
        (Kernels.matvec_par pool ~m ~k mat v))

let test_kernels_matmul_variants_agree () =
  with_pool (fun pool ->
      let m = 33 and n = 29 and k = 41 in
      let a = rng_floats 5 (m * k) and b = rng_floats 6 (k * n) in
      let reference = Kernels.matmul_seq ~m ~n ~k a b in
      check farr "tiled = naive" reference (Kernels.matmul_tiled ~tile:8 ~m ~n ~k a b);
      check farr "parallel = naive" reference (Kernels.matmul_par pool ~tile:8 ~m ~n ~k a b))

let test_kernels_scan () =
  with_pool (fun pool ->
      let xs = rng_floats 7 9_999 in
      check farr "par = seq" (Kernels.scan_seq xs) (Kernels.scan_par pool xs))

let test_kernels_jacobi () =
  with_pool (fun pool ->
      let n = 12 in
      let x = rng_floats 8 (n * n * n) in
      check farr "par = seq" (Kernels.jacobi3d_seq ~n x) (Kernels.jacobi3d_par pool ~n x))

(* --- parallel plan executor --- *)

let test_exec_parallel_matches_sequential () =
  with_pool (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:9 in
          let expected = Exec.run_seq md env in
          let sched =
            { (Schedule.sequential md) with
              Schedule.parallel_dims = Mdh_lowering.Lower.parallelisable_dims md }
          in
          match Exec.run pool md sched env with
          | Error e -> Alcotest.failf "%s: %s" w.W.wl_name e
          | Ok got ->
            List.iter
              (fun (o : Mdh_core.Md_hom.output) ->
                check Alcotest.bool
                  (Printf.sprintf "%s/%s" w.W.wl_name o.Mdh_core.Md_hom.out_name)
                  true
                  (Mdh_tensor.Dense.approx_equal ~rel:1e-4 ~abs:1e-5
                     (Buffer.data (Buffer.env_find got o.Mdh_core.Md_hom.out_name))
                     (Buffer.data (Buffer.env_find expected o.Mdh_core.Md_hom.out_name))))
              md.Mdh_core.Md_hom.outputs)
        Mdh_workloads.Catalog.all)

let test_exec_reference_agrees_with_workload_oracles () =
  List.iter
    (fun (w : W.t) ->
      match w.W.reference with
      | None -> ()
      | Some oracle ->
        let md = W.to_md_hom w w.W.test_params in
        let env = w.W.gen w.W.test_params ~seed:123 in
        let got = Exec.run_seq md env in
        let expected = oracle w.W.test_params env in
        List.iter
          (fun (o : Mdh_core.Md_hom.output) ->
            check Alcotest.bool
              (Printf.sprintf "%s/%s" w.W.wl_name o.Mdh_core.Md_hom.out_name)
              true
              (Mdh_tensor.Dense.approx_equal ~rel:1e-3 ~abs:1e-4
                 (Buffer.data (Buffer.env_find got o.Mdh_core.Md_hom.out_name))
                 (Buffer.data (Buffer.env_find expected o.Mdh_core.Md_hom.out_name))))
          md.Mdh_core.Md_hom.outputs)
    Mdh_workloads.Catalog.all

let suite =
  let tc = Alcotest.test_case in
  ( "runtime",
    [ tc "parallel_for covers all" `Quick test_parallel_for_covers_all;
      tc "parallel_for empty" `Quick test_parallel_for_empty;
      tc "parallel_for exceptions" `Quick test_parallel_for_exception_propagates;
      tc "parallel_reduce sum" `Quick test_parallel_reduce_sum;
      tc "parallel_reduce ordered" `Quick test_parallel_reduce_ordered;
      tc "scan matches sequential" `Quick test_scan_matches_sequential;
      tc "scan edge cases" `Quick test_scan_singleton_and_empty;
      tc "run_in_parallel order" `Quick test_run_in_parallel_order;
      tc "pool reusable" `Quick test_pool_reusable;
      tc "nested submission rejected" `Quick test_nested_submission_rejected;
      tc "raising job leaves pool usable" `Quick test_raising_job_leaves_pool_usable;
      tc "worker exception propagates" `Quick test_worker_exception_propagates;
      tc "worker thunk exception propagates" `Quick test_worker_thunk_exception_propagates;
      tc "zero-domain pool" `Quick test_zero_domain_pool_works;
      tc "kernel dot" `Quick test_kernels_dot;
      tc "kernel matvec" `Quick test_kernels_matvec;
      tc "kernel matmul variants" `Quick test_kernels_matmul_variants_agree;
      tc "kernel scan" `Quick test_kernels_scan;
      tc "kernel jacobi3d" `Quick test_kernels_jacobi;
      tc "parallel exec = sequential (all workloads)" `Slow
        test_exec_parallel_matches_sequential;
      tc "exec agrees with hand oracles" `Slow
        test_exec_reference_agrees_with_workload_oracles ] )
