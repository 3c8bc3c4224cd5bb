(** Executable semantics of the MDH high-level representation.

    Three interchangeable evaluators, used to cross-validate each other:

    - {!reference}: the paper's equation
      [⊗_1 ... ⊗_D f(a[i_1..i_D])] materialised directly — a pointwise
      tensor over the whole iteration space, reduced axis by axis
      (innermost first). Memory-hungry; the executable definition.
    - {!exec}: an in-place sequential executor — accumulates [pw] dimensions
      during iteration and post-scans [ps] dimensions. Linear memory;
      agrees with {!reference} for associative customising functions
      (property-tested).
    - {!eval_tiled}: evaluates the computation tile by tile and recombines
      partial results with {!Mdh_combine.Combine.combine_partials} — the MDH
      decomposition law that justifies every tiling the lowering performs.
      Agrees with {!reference} for any tile sizes (property-tested). *)

module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense

exception Semantic_error of string

val alloc_outputs : Md_hom.t -> Buffer.env -> Buffer.env
(** Extend an input environment with freshly-allocated (zeroed) output
    buffers. Raises [Semantic_error] if an input buffer is missing or its
    shape/type disagrees with the representation. *)

val adopt_outputs :
  Md_hom.t -> Buffer.env -> (Md_hom.output -> Dense.t) -> Buffer.env
(** {!alloc_outputs} with each output's tensor supplied by the caller and
    bound as it is, without a copy: how a backend hands back a result it
    computed into its own store. Checks the inputs the same way. *)

val reference : Md_hom.t -> Buffer.env -> Buffer.env
(** Evaluate by the definitional semantics; returns the environment extended
    with the computed outputs. Intended for small iteration spaces. *)

val exec : Md_hom.t -> Buffer.env -> Buffer.env
(** In-place sequential execution; linear in output size. *)

val eval_tiled : Md_hom.t -> Buffer.env -> tile_sizes:int array -> Buffer.env
(** Evaluate tile-wise with partial-result recombination. [tile_sizes] gives
    the tile extent per dimension (clamped to the extents; every positive
    value is legal). *)

val result_tensor : Md_hom.t -> Buffer.env -> string -> Dense.t
(** Convenience: the data of a named output buffer in a result env. *)

val eval_box :
  Md_hom.t -> Buffer.env -> Md_hom.output -> lo:int array -> sz:int array -> Dense.t
(** Partial result of one output over the box [\[lo, lo+sz)]: the pointwise
    tensor over the box reduced per the combine operators (extent 1 on [pw]
    dimensions, [sz] otherwise). Partial results combine with
    {!Mdh_combine.Combine.combine_partials} — the primitive that parallel
    executors build on. *)

val eval_box_tiled :
  Md_hom.t ->
  Buffer.env ->
  Md_hom.output ->
  lo:int array ->
  sz:int array ->
  tile_sizes:int array ->
  Dense.t
(** {!eval_box} with the decomposition law applied inside the box: the box
    is split per-dimension into [tile_sizes]-sized sub-boxes, evaluated,
    and recombined with the dimension's combine operator. Equal to
    {!eval_box} for any tile sizes; the plan-driven executor uses it to
    honor cache tiles inside each distributed box. The box must be
    non-empty. *)

val write_output :
  Buffer.env -> Md_hom.t -> Md_hom.output -> ?lo:int array -> Dense.t -> unit
(** Write a combined result tensor into the output buffer through the
    out_view. [lo] (default all-zero) is the box origin the tensor was
    evaluated at. *)
