(** Unboxed float kernels for the wall-clock micro-benchmarks.

    The generic evaluators in [Mdh_core.Semantics] interpret expressions over
    boxed values — fine for correctness, useless for timing. These kernels
    are the hand-specialised counterparts of what the MDH pipeline's code
    generator would emit for the linear-algebra and scan workloads:
    sequential baselines, tiled variants, and pool-parallel variants, over
    [float array]s. The Bechamel micro-benchmarks ([bench/main.exe micro])
    time these to demonstrate — on the host machine, not the modelled
    devices — that tiling and reduction parallelisation behave as the cost
    model predicts. *)

val dot_seq : float array -> float array -> float
val dot_par : Pool.t -> float array -> float array -> float
(** One {!Pool.parallel_reduce} chunk per pool grain, each an unboxed
    sequential dot over its range; the partials are summed in range
    order. *)

val matvec_seq : m:int -> k:int -> float array -> float array -> float array
(** Row-major [m x k] matrix times vector. *)

val matvec_par : Pool.t -> m:int -> k:int -> float array -> float array -> float array

val matmul_seq : m:int -> n:int -> k:int -> float array -> float array -> float array
(** Naive i-j-k triple loop, row-major [m x k] times [k x n]. *)

val matmul_tiled :
  ?tile:int -> m:int -> n:int -> k:int -> float array -> float array -> float array
(** Cache-blocked (i,j,k tiles, default 32). *)

val matmul_par :
  Pool.t -> ?tile:int -> m:int -> n:int -> k:int -> float array -> float array ->
  float array
(** Tiled with row-blocks distributed across the pool. *)

val scan_seq : float array -> float array
(** Inclusive prefix sum. *)

val scan_par : Pool.t -> float array -> float array

val jacobi3d_seq : n:int -> float array -> float array
(** One 7-point Jacobi sweep over an [n^3] grid with boundary copy;
    input and output are [n^3] row-major. *)

val jacobi3d_par : Pool.t -> n:int -> float array -> float array
