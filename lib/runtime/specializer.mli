(** Plan-compiled fp32 execution: the generic counterpart of the
    hand-written {!Fastpath} kernels.

    [compile] turns any fp32 [Plan.t] into a closure once — the loop nest
    is driven by the plan's Distribute/Tile/Seq/Accumulate/Scan levels,
    buffer reads go through precomputed row-major strides into the
    inputs' own [float array] stores ({!bind}, no copy), the point
    expression is staged into unboxed thunks, and a direct-write output
    adopts its accumulator as its store — so executing a plan costs no
    per-point tensor boxing, environment lookups or buffer copies.
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

type stats = { hits : int; misses : int; compiles : int }

val stats : unit -> stats
(** Current values of the [runtime.specializer.*] counters. *)

val reset_stats : unit -> unit
val clear : unit -> unit
(** Drop every compiled plan (the counters are reset separately). *)
