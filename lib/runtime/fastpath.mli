(** Dispatch from the plan to the unboxed flat-array kernels.

    When an MDH computation is structurally one of the linear-algebra
    workloads {!Kernels} hand-specialises — dot product, matrix-vector,
    matrix-matrix, all fp32 with builtin [+] reduction — the executor can
    skip the boxed interpreter entirely. The matchers are conservative:
    exact rank, combine operators, scalar-function shape, access patterns,
    types and extents must line up (multiplication operands in either
    order), otherwise the generic plan walker runs. Completed kernel runs
    count under [runtime.kernels.fastpath_hits]; a kernel that raises
    (degraded pool, injected fault) counts under
    [runtime.kernels.fastpath_errors] and the dispatch returns [None] so
    the caller falls back to the generic walker.

    Kernels read the inputs' own [float array] stores and their fresh
    result is adopted as the output store (no copy either way); with the
    profiler on, a run records [phase:fastpath.bind] and, inside its
    [exec] cell, [kernel] and [writeback].

    Kernels accumulate in double precision and round to fp32 once per
    element, so fast-path results agree with the per-op-rounding
    interpreter to float tolerance, not bit-exactly; [Exec.run
    ~fastpath:false] disables dispatch where bit-identity matters. *)

val try_run :
  Pool.t ->
  Mdh_lowering.Plan.t ->
  Mdh_core.Md_hom.t ->
  Mdh_tensor.Buffer.env ->
  Mdh_tensor.Buffer.env option
(** [try_run pool plan md env] is [Some env'] iff a kernel matched and ran
    (parallel when the plan distributes work and the pool has more than one
    worker). [None] means no kernel applies — including when an input
    buffer is missing or mistyped, so the generic path can report the
    error. *)

val matmul_tile : Mdh_lowering.Plan.t -> int
(** The tile the blocked matmul kernel runs with: the innermost tile of
    {!Mdh_lowering.Plan.tiled} (clamped to [4, 256]) when the plan tiles a
    dimension, else 32 — an untiled plan carries its extents as tile
    sizes, and a 128-row tile would put all of matmul 128³ on one
    worker. *)
