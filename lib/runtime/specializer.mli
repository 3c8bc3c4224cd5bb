(** Plan-compiled fp32 execution: the generic counterpart of the
    hand-written {!Fastpath} kernels.

    [compile] turns any fp32 [Plan.t] into a loop program once. Every plan
    level becomes a loop, outermost first: the distributed dims, the
    tree-reduce dim, then the Tile/Seq/Accumulate/Scan nest. The last
    loop is the {e leaf}: its dim [vd] (the innermost nest step; with no
    nest, the tree dim, else the last distributed dim) runs a block of 256
    points at a time. The point expression is compiled to block nodes,
    each filling its own [float array] scratch (allocated once per job) in
    one monomorphic loop:
    - a read whose indices are affine in the iteration variables is a
      strided gather from the input's own store ({!bind}, no copy), with
      its base over the other dims and its step along [vd] precomputed;
    - [+] and [*] on floats run vector/vector, vector/constant or
      constant/vector loops, and constant [+]/[*] subterms fold at
      compile time;
    - anything else — a non-affine index, an int- or bool-typed subterm,
      float [- / min max], [Neg], a [Cast], [Let], [If], a comparison —
      is evaluated per point by a scalar closure into its block. Every
      subterm is typed by that scalar compiler first, so the set of
      accepted plans is exactly what the scalar compiler accepts.

    A block folds into the accumulator with one loop per builtin: a
    running value in a register when [vd] is a pw dim, a strided walk of
    the accumulator otherwise. The [ps] post-scan runs the same loops row
    by row.

    Decomposition is {!decompose}'s, shared with the box walker: cc boxes
    first, writing disjoint slabs of one accumulator, the tree dim split
    into private partials (combined in job order) only when there are
    fewer cc boxes than jobs. A single-worker pool runs one job. With the
    profiler on, the same driver reads the clock at each level entry and
    around each leaf call, recording [L<i>] (self time per plan level),
    [leaf] (the leaf calls, which run the innermost level's loop; the
    cost model prices that level with the leaf too,
    {!Mdh_lowering.Cost.level_attribution}),
    [writeback] and [exec].

    A direct-write output (its out view lays the accumulator out as is,
    collapsed pw dims aside) adopts its accumulator as its store.
    Compiled plans are memoized process-wide under
    {!Mdh_lowering.Plan.digest} (plus a fingerprint of the computation),
    with cache traffic on [runtime.specializer.hits|misses|compiles].

    Eligibility: all inputs read and all outputs are [fp32]; every
    reduction operator ([pw]/[ps]) is one builtin ([add]/[mul]/[min]/[max]),
    with a single pw operator across dimensions (the same restriction the
    reference executor enforces); the value expression uses no
    record types. Everything else falls back to the generic box walker.

    Accumulation happens in double precision with one rounding per output
    element, so results are tolerance-equal — not bit-equal — to the
    per-op-rounding interpreter, exactly like the fast-path kernels. *)

type compiled

val compile :
  Mdh_lowering.Plan.t -> Mdh_core.Md_hom.t -> (compiled, string) result
(** Compile without consulting the cache. The error is the reason the
    computation is not specializable. *)

val supported :
  Mdh_lowering.Plan.t -> Mdh_core.Md_hom.t -> (unit, string) result
(** Cached eligibility check: [Ok ()] iff {!try_run} would execute this
    plan (buffer bindings aside). *)

val try_run :
  Pool.t ->
  Mdh_lowering.Plan.t ->
  Mdh_core.Md_hom.t ->
  Mdh_tensor.Buffer.env ->
  Mdh_tensor.Buffer.env option
(** [Some env'] iff the plan compiled (possibly from cache) and the
    supplied buffers match the declared fp32 shapes; parallel over the
    plan's Distribute/Tree_reduce levels when the pool has more than one
    worker. [None] means the generic walker should run — unsupported
    computation, zero-extent iteration space, or mismatched buffers. *)

val bind : Mdh_core.Md_hom.t -> Mdh_tensor.Buffer.env -> float array array option
(** The input stores {!try_run} hands the compiled closure, in
    [md.inputs] order: each is the caller's own {!Mdh_tensor.Dense.floats},
    not a copy. [None] when an input is missing or is not [fp32] of the
    declared shape. *)

val decompose :
  Mdh_lowering.Plan.t ->
  target:int ->
  (int * (int * int)) list list * (int * (int * int) list) option
(** [decompose plan ~target] spends a budget of [target] jobs on the
    plan's parallel levels, cc first: each distributed dim in dimension
    order is cut into at most the remaining budget of equal ranges
    [(lo, size)], and the ranges are crossed into boxes (outer dim major;
    [[[]]] when nothing is distributed). The tree-reduce dim, if any, is
    split only with budget left over, that is when there are fewer cc
    boxes than [target]. The box walker and the specializer both run one
    job per box (times tree range). *)

type stats = { hits : int; misses : int; compiles : int }

val stats : unit -> stats
(** Current values of the [runtime.specializer.*] counters. *)

val reset_stats : unit -> unit
val clear : unit -> unit
(** Drop every compiled plan (the counters are reset separately). *)
