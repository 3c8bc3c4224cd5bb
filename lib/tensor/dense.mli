(** Dense multi-dimensional tensors: one flat, typed store per tensor.

    The element type lives on the tensor and picks the store: [fp32] and
    [fp64] are a flat [float array] (an [fp32] element is the double its
    [F32] value carries), [int32] and [int64] a [Bigarray], [bool] and
    [char] a [Bytes], and records a boxed [Scalar.value array].
    {!get}/{!set} speak [Scalar.value] for the reference semantics, the
    box walker and the analyzer; the fast backends in [Mdh_runtime] run on
    {!floats} in place and hand their results back through {!of_floats},
    so binding a buffer or adopting a result copies nothing. *)

type t

val create : Scalar.ty -> Shape.t -> t
(** Allocated with the type's zero value. *)

val of_fn : Scalar.ty -> Shape.t -> (int array -> Scalar.value) -> t

val scalar : Scalar.value -> t
(** Rank-0 tensor holding one value. *)

val ty : t -> Scalar.ty
val shape : t -> Shape.t
val num_elements : t -> int

val get : t -> int array -> Scalar.value
val set : t -> int array -> Scalar.value -> unit

val get_linear : t -> int -> Scalar.value
val set_linear : t -> int -> Scalar.value -> unit
(** [set] and [set_linear] raise [Invalid_argument] when the value's type
    does not fit the store (an [F64] in an [fp32] tensor, say); a record
    tensor takes any value. *)

val floats : t -> float array
(** The store of an [fp32] or [fp64] tensor itself, not a copy: writes to
    it are writes to the tensor. Raises [Invalid_argument] on other
    types. *)

val of_floats : Scalar.ty -> Shape.t -> float array -> t
(** [of_floats ty shape a] adopts [a] as the store of a new [fp32] or
    [fp64] tensor, without copying. For [fp32] each element is first
    rounded to single precision in place, as {!Scalar.f32} rounds. Raises [Invalid_argument] on other
    types or when the length does not match the shape. *)

val copy : t -> t

val fill : t -> Scalar.value -> unit

val iteri : t -> (int array -> Scalar.value -> unit) -> unit
(** Row-major order; the index array is reused between calls. *)

val map2 : (Scalar.value -> Scalar.value -> Scalar.value) -> t -> t -> t
(** Element-wise; shapes must agree. *)

val equal : t -> t -> bool
val approx_equal : ?rel:float -> ?abs:float -> t -> t -> bool

val slice : t -> dim:int -> lo:int -> len:int -> t
(** Contiguous sub-tensor along [dim] (copying). *)

val concat : dim:int -> t -> t -> t
(** Concatenate along [dim]; all other extents must agree. *)

val scan : dim:int -> (Scalar.value -> Scalar.value -> Scalar.value) -> t -> t
(** Inclusive prefix scan along [dim]. *)

val reduce : dim:int -> (Scalar.value -> Scalar.value -> Scalar.value) -> t -> t
(** Fold along [dim], collapsing its extent to 1 (left fold in index order). *)

val pp : Format.formatter -> t -> unit
(** Debug rendering; intended for small tensors. *)
