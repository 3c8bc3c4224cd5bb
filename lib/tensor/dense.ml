open Bigarray

type i32s = (int32, int32_elt, c_layout) Array1.t
type i64s = (int64, int64_elt, c_layout) Array1.t

(* One store per element type. F32s holds exactly the double an [F32 x]
   carries (normally fp32-rounded, but whatever [set] was given), so a
   get after a set is bit-identical. Records stay boxed. *)
type store =
  | F32s of float array
  | F64s of float array
  | I32s of i32s
  | I64s of i64s
  | Bools of bytes
  | Chars of bytes
  | Boxed of Scalar.value array

type t = { ty : Scalar.ty; shape : Shape.t; store : store }

let int32s n = let a = Array1.create int32 c_layout n in Array1.fill a 0l; a
let int64s n = let a = Array1.create int64 c_layout n in Array1.fill a 0L; a

let zeros ty n =
  match ty with
  | Scalar.Fp32 -> F32s (Array.make n 0.0)
  | Fp64 -> F64s (Array.make n 0.0)
  | Int32 -> I32s (int32s n)
  | Int64 -> I64s (int64s n)
  | Bool -> Bools (Bytes.make n '\000')
  | Char -> Chars (Bytes.make n '\000')
  | Record _ -> Boxed (Array.make n (Scalar.zero ty))

let create ty shape =
  Shape.validate shape;
  { ty; shape; store = zeros ty (Shape.num_elements shape) }

let ty t = t.ty
let shape t = t.shape

let num_elements t =
  match t.store with
  | F32s a | F64s a -> Array.length a
  | I32s a -> Array1.dim a
  | I64s a -> Array1.dim a
  | Bools b | Chars b -> Bytes.length b
  | Boxed a -> Array.length a

let get_linear t i =
  match t.store with
  | F32s a -> Scalar.F32 a.(i)
  | F64s a -> F64 a.(i)
  | I32s a -> I32 (Array1.get a i)
  | I64s a -> I64 (Array1.get a i)
  | Bools b -> B (Bytes.get b i <> '\000')
  | Chars b -> C (Bytes.get b i)
  | Boxed a -> a.(i)

let set_linear t i v =
  match (t.store, v) with
  | F32s a, Scalar.F32 x | F64s a, F64 x -> a.(i) <- x
  | I32s a, I32 x -> Array1.set a i x
  | I64s a, I64 x -> Array1.set a i x
  | Bools b, B x -> Bytes.set b i (if x then '\001' else '\000')
  | Chars b, C c -> Bytes.set b i c
  | Boxed a, v -> a.(i) <- v
  | _ ->
    invalid_arg
      (Printf.sprintf "Dense.set: %s in a %s tensor" (Scalar.value_to_string v)
         (Scalar.ty_to_string t.ty))

let get t idx = get_linear t (Shape.linearize t.shape idx)
let set t idx v = set_linear t (Shape.linearize t.shape idx) v

let of_fn ty shape f =
  let t = create ty shape in
  Shape.iter shape (fun idx -> set t idx (f idx));
  t

let scalar v =
  let t = create (Scalar.type_of_value v) [||] in
  set_linear t 0 v;
  t

let floats t =
  match t.store with
  | F32s a | F64s a -> a
  | _ -> invalid_arg ("Dense.floats: " ^ Scalar.ty_to_string t.ty ^ " tensor")

let of_floats ty shape a =
  Shape.validate shape;
  if Array.length a <> Shape.num_elements shape then
    invalid_arg "Dense.of_floats: length does not match the shape";
  match ty with
  | Scalar.Fp32 ->
    (* Scalar.round_f32 spelled out: a call across modules would box
       every element *)
    for i = 0 to Array.length a - 1 do
      a.(i) <- Int32.float_of_bits (Int32.bits_of_float a.(i))
    done;
    { ty; shape; store = F32s a }
  | Fp64 -> { ty; shape; store = F64s a }
  | _ -> invalid_arg ("Dense.of_floats: " ^ Scalar.ty_to_string ty ^ " tensor")

let copy_ba src =
  let dst = Array1.create (Array1.kind src) c_layout (Array1.dim src) in
  Array1.blit src dst;
  dst

let copy t =
  let store =
    match t.store with
    | F32s a -> F32s (Array.copy a)
    | F64s a -> F64s (Array.copy a)
    | I32s a -> I32s (copy_ba a)
    | I64s a -> I64s (copy_ba a)
    | Bools b -> Bools (Bytes.copy b)
    | Chars b -> Chars (Bytes.copy b)
    | Boxed a -> Boxed (Array.copy a)
  in
  { t with store }

let fill t v =
  match (t.store, v) with
  | (F32s a, Scalar.F32 x) | (F64s a, F64 x) -> Array.fill a 0 (Array.length a) x
  | I32s a, I32 x -> Array1.fill a x
  | I64s a, I64 x -> Array1.fill a x
  | Boxed a, v -> Array.fill a 0 (Array.length a) v
  | _ -> for i = 0 to num_elements t - 1 do set_linear t i v done

let iteri t f = Shape.iter t.shape (fun idx -> f idx (get t idx))

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Dense.map2: shape mismatch";
  match (a.store, b.store) with
  | Boxed x, Boxed y -> { a with store = Boxed (Array.map2 f x y) }
  | _ ->
    let out = create a.ty a.shape in
    for i = 0 to num_elements a - 1 do
      set_linear out i (f (get_linear a i) (get_linear b i))
    done;
    out

(* Element-wise predicate over two equally-shaped tensors: a flat loop
   when both stores hold floats of the same type, the boxed values
   otherwise. *)
let for_all2 ~floats:pf ~values:pv a b =
  Shape.equal a.shape b.shape
  &&
  match (a.store, b.store) with
  | (F32s x, F32s y) | (F64s x, F64s y) ->
    let rec go i = i < 0 || (pf x.(i) y.(i) && go (i - 1)) in
    go (Array.length x - 1)
  | _ ->
    let n = num_elements a in
    n = num_elements b
    &&
    let rec go i = i >= n || (pv (get_linear a i) (get_linear b i) && go (i + 1)) in
    go 0

let equal a b = for_all2 ~floats:Float.equal ~values:Scalar.equal a b

let approx_equal ?rel ?abs a b =
  for_all2
    ~floats:(Mdh_support.Util.float_equal ?rel ?abs)
    ~values:(Scalar.approx_equal ?rel ?abs) a b

let slice t ~dim ~lo ~len =
  let rank = Shape.rank t.shape in
  if dim < 0 || dim >= rank then invalid_arg "Dense.slice: dimension out of range";
  if lo < 0 || len <= 0 || lo + len > t.shape.(dim) then
    invalid_arg "Dense.slice: range out of bounds";
  let out_shape = Shape.concat_extent t.shape ~dim len in
  let out = create t.ty out_shape in
  Shape.iter out_shape (fun idx ->
      let src = Array.copy idx in
      src.(dim) <- idx.(dim) + lo;
      set out idx (get t src));
  out

let concat ~dim a b =
  let rank = Shape.rank a.shape in
  if Shape.rank b.shape <> rank then invalid_arg "Dense.concat: rank mismatch";
  Array.iteri
    (fun d n ->
      if d <> dim && n <> b.shape.(d) then
        invalid_arg "Dense.concat: extents disagree off the concat dimension")
    a.shape;
  let out_shape = Shape.concat_extent a.shape ~dim (a.shape.(dim) + b.shape.(dim)) in
  let out = create a.ty out_shape in
  Shape.iter a.shape (fun idx -> set out idx (get a idx));
  Shape.iter b.shape (fun idx ->
      let dst = Array.copy idx in
      dst.(dim) <- idx.(dim) + a.shape.(dim);
      set out dst (get b idx));
  out

let outer_shape shape dim = Array.of_list (List.filteri (fun d _ -> d <> dim) (Array.to_list shape))

let with_dim idx dim i =
  let rank = Array.length idx + 1 in
  Array.init rank (fun d -> if d < dim then idx.(d) else if d = dim then i else idx.(d - 1))

let scan ~dim f t =
  let out = copy t in
  let outer = outer_shape t.shape dim in
  Shape.iter outer (fun oidx ->
      let acc = ref (get t (with_dim oidx dim 0)) in
      for i = 1 to t.shape.(dim) - 1 do
        acc := f !acc (get t (with_dim oidx dim i));
        set out (with_dim oidx dim i) !acc
      done);
  out

let reduce ~dim f t =
  let out_shape = Shape.concat_extent t.shape ~dim 1 in
  let out = create t.ty out_shape in
  let outer = outer_shape t.shape dim in
  Shape.iter outer (fun oidx ->
      let acc = ref (get t (with_dim oidx dim 0)) in
      for i = 1 to t.shape.(dim) - 1 do
        acc := f !acc (get t (with_dim oidx dim i))
      done;
      set out (with_dim oidx dim 0) !acc);
  out

let pp ppf t =
  Format.fprintf ppf "tensor %s %a [@[" (Shape.to_string t.shape) Scalar.pp_ty t.ty;
  let first = ref true in
  iteri t (fun _ v ->
      if !first then first := false else Format.pp_print_string ppf "; ";
      Scalar.pp_value ppf v);
  Format.fprintf ppf "@]]"
