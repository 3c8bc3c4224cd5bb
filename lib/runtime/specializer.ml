module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Index_fn = Mdh_tensor.Index_fn
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module Analysis = Mdh_expr.Analysis
module Plan = Mdh_lowering.Plan
module Memo = Mdh_support.Memo
module Trace = Mdh_obs.Trace
module Metrics = Mdh_obs.Metrics
module Clock = Mdh_obs.Clock
module Profile = Mdh_obs.Profile

let m_hits = Metrics.counter "runtime.specializer.hits"
let m_misses = Metrics.counter "runtime.specializer.misses"
let m_compiles = Metrics.counter "runtime.specializer.compiles"

(* per-phase latency: compilation (cache misses only) vs execution of the
   compiled closure — hit/miss counters alone leave compiled-plan time
   invisible in traces *)
let h_compile = Metrics.histogram "runtime.specializer.compile_s"
let h_run = Metrics.histogram "runtime.specializer.run_s"

exception Unsupported of string

let unsup fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

(* --- decomposition over the plan's parallel levels ------------------- *)

(* [0, extent) cut into at most [pieces] equal chunks (the last may be
   short); empty chunks are dropped. *)
let split_range ~extent ~pieces =
  let n = max 1 (min extent pieces) in
  let chunk = (extent + n - 1) / n in
  List.init n (fun c -> (c * chunk, min chunk (extent - (c * chunk))))
  |> List.filter (fun (_, sz) -> sz > 0)

(* Spend the chunk budget on the plan's parallel levels: distributed (cc)
   dimensions first, in dimension order, then the tree-reduce dimension
   with whatever budget remains. The cc ranges are crossed into boxes,
   outer dimension major. *)
let decompose plan ~target =
  let remaining = ref (max 1 target) in
  let cc =
    List.map
      (fun (d, extent) ->
        let pieces = max 1 (min extent !remaining) in
        remaining := max 1 (!remaining / pieces);
        (d, split_range ~extent ~pieces))
      (Plan.distributed plan)
  in
  let boxes =
    List.fold_left
      (fun boxes (d, ranges) ->
        List.concat_map (fun box -> List.map (fun r -> box @ [ (d, r) ]) ranges) boxes)
      [ [] ] cc
  in
  let tree =
    match Plan.tree plan with
    | Some (d, extent, _items) when !remaining > 1 ->
      Some (d, split_range ~extent ~pieces:!remaining)
    | _ -> None
  in
  (boxes, tree)

(* --- per-job evaluation state ---------------------------------------- *)

(* Compilation happens once per plan digest; instantiation happens once per
   job. A scalar closure is two-stage: applied to a [state] it resolves
   buffers and local-variable cells, returning the per-point thunk. Only
   the fallback subterms of a block expression (below) run this way. *)
type state = {
  bufs : float array array;  (** one flat array per input, in [md.inputs] order *)
  point : int array;  (** current iteration point, length = rank *)
  base : int array;  (** cache-tile block origins, one slot per Tile level *)
  fcells : float array;  (** [Let]-bound float locals *)
  icells : int array;  (** [Let]-bound integer locals *)
  bcells : bool array;  (** [Let]-bound boolean locals *)
}

type 'a inst = state -> unit -> 'a

type builder = BF of float inst | BI of int inst | BB of bool inst

type slots = { mutable nf : int; mutable ni : int; mutable nb : int }

type binding = Slot_f of int | Slot_i of int | Slot_b of int

(* A float expression over the leaf dimension [vd], evaluated a block of
   points at a time. A gather reads [data.(base + step·x)] for the block's
   [x], where [base = k + Σ_{d≠vd} coef_d·point_d] is its affine [term],
   kept up to date by the loops above the leaf; [B_scalar] is the
   per-point fallback for anything else (non-affine reads, integer or
   boolean subterms, float [- / min max], [Neg], [Cast], [Let], [If]). *)
type bexpr =
  | B_const of float
  | B_gather of { pos : int; term : int; step : int }
  | B_bin of Expr.binop * bexpr * bexpr  (** [Add] or [Mul] *)
  | B_scalar of float inst

(* --- expression compilation ------------------------------------------ *)

let row_major_strides shape =
  let r = Array.length shape in
  let s = Array.make r 1 in
  for d = r - 2 downto 0 do
    s.(d) <- s.(d + 1) * shape.(d + 1)
  done;
  s

let lift_f = function
  | BF f -> f
  | BI f -> fun st -> let g = f st in fun () -> float_of_int (g ())
  | BB _ -> unsup "boolean used where a number is required"

let as_i = function BI f -> f | _ -> unsup "non-integer index expression"
let as_b = function BB f -> f | _ -> unsup "non-boolean condition"

(* Run [pre] (a cell store) before the body thunk, preserving its kind. *)
let with_pre pre = function
  | BF f -> BF (fun st -> let p = pre st and g = f st in fun () -> p (); g ())
  | BI f -> BI (fun st -> let p = pre st and g = f st in fun () -> p (); g ())
  | BB f -> BB (fun st -> let p = pre st and g = f st in fun () -> p (); g ())

(* Float.min / Float.max, inlined so a block loop keeps its floats
   unboxed *)
let[@inline] fmin x y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if y <> y then y else x
  else if x <> x then x
  else y

let[@inline] fmax x y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if x <> x then x else y
  else if y <> y then y
  else x

let fold_binop op x y =
  match op with
  | Expr.Add -> x +. y
  | Expr.Sub -> x -. y
  | Expr.Mul -> x *. y
  | Expr.Div -> x /. y
  | Expr.Min -> fmin x y
  | Expr.Max -> fmax x y
  | _ -> assert false

(* An affine address [k + Σ_d coef_d·point_d]. *)
type term = { k : int; coef : int array }

(* [compile_expr md ~vd e] is the block form of the output value [e] with
   [vd] as the leaf dimension, and the address terms of its gathers, which
   number theirs from 1 (term 0 is the accumulator's). Every subterm is
   first compiled to a scalar closure, which types it and rejects what the
   specializer does not support, so the block form accepts exactly what
   the scalar one did. *)
let compile_expr (md : Md_hom.t) ~vd e =
  let dim_pos name =
    let rec go d =
      if d >= Array.length md.dims then unsup "unknown iteration variable %s" name
      else if String.equal md.dims.(d) name then d
      else go (d + 1)
    in
    go 0
  in
  let input_pos name =
    let rec go pos = function
      | [] -> None
      | (i : Md_hom.input) :: rest ->
        if String.equal i.inp_name name then Some (pos, i) else go (pos + 1) rest
    in
    go 0 md.inputs
  in
  let fp32_input buf idxs =
    match input_pos buf with
    | None -> unsup "read of non-input buffer %s" buf
    | Some (_, i) when not (Scalar.equal_ty i.inp_ty Scalar.Fp32) ->
      unsup "non-fp32 input %s" buf
    | Some (pos, i) ->
      if List.length idxs <> Array.length i.inp_shape then
        unsup "rank mismatch reading %s" buf;
      (pos, row_major_strides i.inp_shape)
  in
  let slots = { nf = 0; ni = 0; nb = 0 } in
  let rec comp env e =
    match e with
    | Expr.Const (Scalar.F32 x) ->
      let x = Scalar.round_f32 x in
      BF (fun _ () -> x)
    | Expr.Const (Scalar.F64 x) -> BF (fun _ () -> x)
    | Expr.Const (Scalar.I32 x) ->
      let x = Int32.to_int x in
      BI (fun _ () -> x)
    | Expr.Const (Scalar.I64 x) ->
      let x = Int64.to_int x in
      BI (fun _ () -> x)
    | Expr.Const (Scalar.B x) -> BB (fun _ () -> x)
    | Expr.Const (Scalar.C _ | Scalar.R _) -> unsup "char/record constant"
    | Expr.Idx name ->
      let d = dim_pos name in
      BI (fun st () -> st.point.(d))
    | Expr.Var name -> (
      match List.assoc_opt name env with
      | Some (Slot_f s) -> BF (fun st () -> st.fcells.(s))
      | Some (Slot_i s) -> BI (fun st () -> st.icells.(s))
      | Some (Slot_b s) -> BB (fun st () -> st.bcells.(s))
      | None -> unsup "unbound local %s" name)
    | Expr.Read (buf, idxs) ->
      let pos, str = fp32_input buf idxs in
      let fs = Array.of_list (List.map (fun ix -> as_i (comp env ix)) idxs) in
      BF
        (fun st ->
          let gs = Array.map (fun f -> f st) fs and data = st.bufs.(pos) in
          fun () ->
            let lin = ref 0 in
            Array.iteri (fun d g -> lin := !lin + (str.(d) * g ())) gs;
            data.(!lin))
    | Expr.Binop (op, a, b) -> comp_binop env op a b
    | Expr.Unop (Expr.Neg, a) -> (
      match comp env a with
      | BF f -> BF (fun st -> let g = f st in fun () -> -.g ())
      | BI f -> BI (fun st -> let g = f st in fun () -> -g ())
      | BB _ -> unsup "negation of a boolean")
    | Expr.Unop (Expr.Not, a) ->
      let f = as_b (comp env a) in
      BB (fun st -> let g = f st in fun () -> not (g ()))
    | Expr.If (c, t, f) -> (
      let fc = as_b (comp env c) in
      match (comp env t, comp env f) with
      | BF ft, BF ff ->
        BF
          (fun st ->
            let c = fc st and t = ft st and f = ff st in
            fun () -> if c () then t () else f ())
      | BI ft, BI ff ->
        BI
          (fun st ->
            let c = fc st and t = ft st and f = ff st in
            fun () -> if c () then t () else f ())
      | BB ft, BB ff ->
        BB
          (fun st ->
            let c = fc st and t = ft st and f = ff st in
            fun () -> if c () then t () else f ())
      | _ -> unsup "if branches of different types")
    | Expr.Let (name, v, body) -> (
      match comp env v with
      | BF vf ->
        let s = slots.nf in
        slots.nf <- s + 1;
        with_pre
          (fun st -> let g = vf st in fun () -> st.fcells.(s) <- g ())
          (comp ((name, Slot_f s) :: env) body)
      | BI vf ->
        let s = slots.ni in
        slots.ni <- s + 1;
        with_pre
          (fun st -> let g = vf st in fun () -> st.icells.(s) <- g ())
          (comp ((name, Slot_i s) :: env) body)
      | BB vf ->
        let s = slots.nb in
        slots.nb <- s + 1;
        with_pre
          (fun st -> let g = vf st in fun () -> st.bcells.(s) <- g ())
          (comp ((name, Slot_b s) :: env) body))
    | Expr.Field _ | Expr.MkRecord _ -> unsup "record expression"
    | Expr.Cast (Scalar.Fp32, a) -> (
      match comp env a with
      | BF f -> BF (fun st -> let g = f st in fun () -> Scalar.round_f32 (g ()))
      | BI f -> BF (fun st -> let g = f st in fun () -> float_of_int (g ()))
      | BB _ -> unsup "cast of a boolean")
    | Expr.Cast ((Scalar.Int32 | Scalar.Int64), a) -> (
      match comp env a with
      | BI f -> BI f
      | BF f -> BI (fun st -> let g = f st in fun () -> int_of_float (g ()))
      | BB _ -> unsup "cast of a boolean")
    | Expr.Cast _ -> unsup "unsupported cast target"
  and comp_binop env op a b =
    let ba = comp env a and bb = comp env b in
    match op with
    | Expr.And ->
      let fa = as_b ba and fb = as_b bb in
      BB (fun st -> let a = fa st and b = fb st in fun () -> a () && b ())
    | Expr.Or ->
      let fa = as_b ba and fb = as_b bb in
      BB (fun st -> let a = fa st and b = fb st in fun () -> a () || b ())
    | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Min | Expr.Max -> (
      match (ba, bb) with
      | BI fa, BI fb ->
        let mk =
          match op with
          | Expr.Add -> ( + )
          | Expr.Sub -> ( - )
          | Expr.Mul -> ( * )
          | Expr.Div -> ( / )
          | Expr.Min -> min
          | Expr.Max -> max
          | _ -> assert false
        in
        BI (fun st -> let a = fa st and b = fb st in fun () -> mk (a ()) (b ()))
      | _ ->
        let fa = lift_f ba and fb = lift_f bb in
        BF
          (fun st ->
            let a = fa st and b = fb st in
            fun () -> fold_binop op (a ()) (b ())))
    | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> (
      match (ba, bb) with
      | BI fa, BI fb ->
        let mk : int -> int -> bool =
          match op with
          | Expr.Eq -> ( = )
          | Expr.Ne -> ( <> )
          | Expr.Lt -> ( < )
          | Expr.Le -> ( <= )
          | Expr.Gt -> ( > )
          | Expr.Ge -> ( >= )
          | _ -> assert false
        in
        BB (fun st -> let a = fa st and b = fb st in fun () -> mk (a ()) (b ()))
      | _ ->
        let fa = lift_f ba and fb = lift_f bb in
        let mk : float -> float -> bool =
          match op with
          | Expr.Eq -> ( = )
          | Expr.Ne -> ( <> )
          | Expr.Lt -> ( < )
          | Expr.Le -> ( <= )
          | Expr.Gt -> ( > )
          | Expr.Ge -> ( >= )
          | _ -> assert false
        in
        BB (fun st -> let a = fa st and b = fb st in fun () -> mk (a ()) (b ())))
  in
  (* an affine read's linear address as a term, and its step along [vd] *)
  let terms = ref [] in
  let gather buf idxs =
    let pos, str = fp32_input buf idxs in
    match Analysis.affine_of_index_exprs ~dims:md.dims idxs with
    | Some (Index_fn.Affine { coords; _ }) ->
      let k = ref 0 and coef = Array.make (Array.length md.dims) 0 in
      Array.iteri
        (fun c (co : Index_fn.coord) ->
          k := !k + (str.(c) * co.offset);
          Array.iteri (fun d x -> coef.(d) <- coef.(d) + (str.(c) * x)) co.coeffs)
        coords;
      terms := { k = !k; coef } :: !terms;
      Some
        (B_gather
           { pos; term = List.length !terms; step = (if vd < 0 then 0 else coef.(vd)) })
    | _ -> None
  in
  let rec blk e =
    match comp [] e with
    | BB _ -> unsup "output value is boolean"
    | BI _ as b -> B_scalar (lift_f b)
    | BF f -> (
      match e with
      | Expr.Const (Scalar.F32 x) -> B_const (Scalar.round_f32 x)
      | Expr.Const (Scalar.F64 x) -> B_const x
      | Expr.Read (buf, idxs) -> (
        match gather buf idxs with Some g -> g | None -> B_scalar f)
      | Expr.Binop (((Expr.Add | Expr.Mul) as op), a, b) -> (
        match (blk a, blk b) with
        | B_const x, B_const y -> B_const (fold_binop op x y)
        | ba, bb -> B_bin (op, ba, bb))
      | _ -> B_scalar f)
  in
  let b = blk e in
  (b, slots, Array.of_list (List.rev !terms))

(* --- loop-nest compilation ------------------------------------------- *)

type nest_step =
  | S_loop of { dim : int; lo : int; hi : int }
  | S_tile_outer of { tile : int; extent : int; slot : int }
  | S_tile_inner of { dim : int; tile : int; extent : int; slot : int }

type builtin = Add | Mul | Min | Max

type out_plan = {
  out : Md_hom.output;
  value : bexpr;
  terms : term array;  (** the accumulator's address, then each gather's *)
  direct_write : bool;  (** the out view lays the accumulator out as is *)
}

type compiled = {
  plan : Plan.t;  (** the source plan, which {!decompose} splits *)
  digest : string;  (** [Plan.digest plan], the profile key *)
  rank : int;
  steps : nest_step array;
      (** every plan level as a loop, outermost first: distributed dims,
          the tree dim, then the sequential nest; the last is the leaf *)
  step_levels : int array;  (** plan-level index ([Plan.levels] position) of each step *)
  vd : int;  (** the leaf dimension, the dim of the last step; -1 at rank 0 *)
  tree_level : int;  (** plan-level index of the [Tree_reduce] level, or -1 *)
  acc_shape : int array;  (** [Md_hom.result_shape] *)
  acc_size : int;
  astride : int array;  (** accumulator stride per iteration dim; 0 on pw dims *)
  pw : builtin option;  (** the (single) pw operator *)
  scans : (int * builtin) array;  (** ps dims with their operators, innermost first *)
  scan_levels : int array;
      (** plan-level index of each [scans] entry's [Scan] level, or -1 *)
  n_base : int;
  slots : slots;
  outs : out_plan list;
}

let builtin_of (fn : Combine.custom_fn) =
  if not fn.Combine.builtin then None
  else
    match fn.Combine.fn_name with
    | "add" -> Some Add
    | "mul" -> Some Mul
    | "min" -> Some Min
    | "max" -> Some Max
    | _ -> None

let identity = function
  | Add -> 0.0
  | Mul -> 1.0
  | Min -> infinity
  | Max -> neg_infinity

let compile (plan : Plan.t) (md : Md_hom.t) =
  try
    let rank = Md_hom.rank md in
    (* one pw operator, builtin: the accumulator folds every pw dimension
       with the same double-precision combiner (the reference executor
       enforces the same single-operator restriction) *)
    let pw =
      let ops =
        List.filter_map
          (fun d ->
            match md.combine_ops.(d) with
            | Combine.Pw fn -> Some fn
            | _ -> None)
          (List.init rank Fun.id)
      in
      match ops with
      | [] -> None
      | fn :: rest ->
        if List.exists (fun f -> not (String.equal f.Combine.fn_name fn.Combine.fn_name)) rest
        then unsup "multiple distinct pw operators";
        (match builtin_of fn with
        | Some p -> Some p
        | None -> unsup "non-builtin pw operator %s" fn.Combine.fn_name)
    in
    let scans =
      Array.of_list
        (List.filter_map
           (fun d ->
             (* innermost first: iterate dims from last to first *)
             let d = rank - 1 - d in
             match md.combine_ops.(d) with
             | Combine.Ps fn -> (
               match builtin_of fn with
               | Some op -> Some (d, op)
               | None -> unsup "non-builtin ps operator %s" fn.Combine.fn_name)
             | _ -> None)
           (List.init rank Fun.id))
    in
    let acc_shape = Md_hom.result_shape md in
    let acc_size = Shape.num_elements acc_shape in
    let astride =
      let s = row_major_strides acc_shape in
      Array.mapi
        (fun d s -> if Combine.collapses md.combine_ops.(d) then 0 else s)
        s
    in
    (* one loop per plan level, in level order; each step keeps its
       position in [plan.levels] so the profiler can address measured
       time back to the plan tree *)
    let tiles = Hashtbl.create 4 in
    let n_base = ref 0 in
    let steps =
      List.concat_map
        (fun (lvl_idx, level) ->
          match level with
          | Plan.Distribute { dims; extents; _ } ->
            List.map2 (fun dim hi -> (lvl_idx, S_loop { dim; lo = 0; hi })) dims extents
          | Plan.Tree_reduce { dim; extent; _ } ->
            [ (lvl_idx, S_loop { dim; lo = 0; hi = extent }) ]
          | Plan.Tile { dim; tile; extent } ->
            let slot = !n_base in
            incr n_base;
            Hashtbl.replace tiles dim (tile, extent, slot);
            [ (lvl_idx, S_tile_outer { tile; extent; slot }) ]
          | Plan.Seq { dim; extent } -> (
            match Hashtbl.find_opt tiles dim with
            | Some (tile, full, slot) ->
              [ (lvl_idx, S_tile_inner { dim; tile; extent = full; slot }) ]
            | None -> [ (lvl_idx, S_loop { dim; lo = 0; hi = extent }) ])
          | Plan.Accumulate { dim; extent; _ } | Plan.Scan { dim; extent; _ } ->
            [ (lvl_idx, S_loop { dim; lo = 0; hi = extent }) ])
        (List.mapi (fun i l -> (i, l)) plan.Plan.levels)
    in
    let vd =
      match List.rev steps with
      | (_, (S_loop { dim; _ } | S_tile_inner { dim; _ })) :: _ -> dim
      | (_, S_tile_outer _) :: _ -> unsup "tile level without its inner loop"
      | [] -> -1 (* rank 0: the leaf is the one point *)
    in
    let level_index pred =
      let rec go i = function
        | [] -> -1
        | l :: rest -> if pred l then i else go (i + 1) rest
      in
      go 0 plan.Plan.levels
    in
    let tree_level =
      level_index (function Plan.Tree_reduce _ -> true | _ -> false)
    in
    let slots = { nf = 0; ni = 0; nb = 0 } in
    let outs =
      List.map
        (fun (o : Md_hom.output) ->
          if not (Scalar.equal_ty o.out_ty Scalar.Fp32) then
            unsup "non-fp32 output %s" o.out_name;
          let value, s, gathers = compile_expr md ~vd o.value in
          slots.nf <- max slots.nf s.nf;
          slots.ni <- max slots.ni s.ni;
          slots.nb <- max slots.nb s.nb;
          (* the out view lays the accumulator out as it is: coordinate
             [j] is dim [d_j] alone, with the dims ascending, the
             accumulator's extents, and every dim left out of extent 1
             (a collapsed pw dim) — so linear addresses coincide *)
          let direct_write =
            match o.out_access.fn with
            | Index_fn.Affine { arity; coords } ->
              let unit_dim (c : Index_fn.coord) =
                match List.filter (fun d -> c.coeffs.(d) <> 0) (List.init arity Fun.id) with
                | [ d ] when c.offset = 0 && c.coeffs.(d) = 1 -> d
                | _ -> -1
              in
              let dims = Array.map unit_dim coords in
              arity = rank
              && Array.length o.out_shape = Array.length dims
              && Array.for_all Fun.id
                   (Array.mapi
                      (fun j d ->
                        d >= 0 && (j = 0 || dims.(j - 1) < d)
                        && o.out_shape.(j) = acc_shape.(d))
                      dims)
              && Array.for_all Fun.id
                   (Array.mapi (fun d x -> x = 1 || Array.mem d dims) acc_shape)
            | Index_fn.Opaque _ -> false
          in
          { out = o; value; direct_write;
            terms = Array.append [| { k = 0; coef = astride } |] gathers })
        md.outputs
    in
    let scan_levels =
      Array.map
        (fun (d, _) ->
          level_index (function
            | Plan.Scan { dim; _ } -> dim = d
            | _ -> false))
        scans
    in
    Ok
      { plan; digest = Plan.digest plan; rank;
        steps = Array.of_list (List.map snd steps);
        step_levels = Array.of_list (List.map fst steps);
        vd; tree_level; acc_shape; acc_size; astride;
        pw; scans; scan_levels; n_base = !n_base; slots; outs }
  with Unsupported msg -> Error msg

(* --- block execution -------------------------------------------------- *)

(* Points per block: scratch is [block] floats per expression node per
   job, so a block stays in L1 however long the leaf loop is. *)
let block = 256

let mk_state c bufs =
  { bufs;
    point = Array.make (max 1 c.rank) 0;
    base = Array.make (max 1 c.n_base) 0;
    fcells = Array.make (max 1 c.slots.nf) 0.0;
    icells = Array.make (max 1 c.slots.ni) 0;
    bcells = Array.make (max 1 c.slots.nb) false }

(* [dst.(d + i·ds) <- dst.(d + i·ds) ⊕ src.(s + i)] for [i < m], one loop
   per builtin; with [ds = 0] the running value stays in a register. The
   accumulator fold, the tree partials' combine and the post-scan all go
   through here. *)
let accumulate op (dst : float array) d ds (src : float array) s m =
  if m > 0 then begin
    if s < 0 || s + m > Array.length src then invalid_arg "Specializer.accumulate";
    if ds = 0 then begin
      let r = ref dst.(d) in
      (match op with
      | Add -> for i = s to s + m - 1 do r := !r +. Array.unsafe_get src i done
      | Mul -> for i = s to s + m - 1 do r := !r *. Array.unsafe_get src i done
      | Min -> for i = s to s + m - 1 do r := fmin !r (Array.unsafe_get src i) done
      | Max -> for i = s to s + m - 1 do r := fmax !r (Array.unsafe_get src i) done);
      dst.(d) <- !r
    end
    else
      match op with
      | Add ->
        for i = 0 to m - 1 do
          let j = d + (i * ds) in
          dst.(j) <- dst.(j) +. Array.unsafe_get src (s + i)
        done
      | Mul ->
        for i = 0 to m - 1 do
          let j = d + (i * ds) in
          dst.(j) <- dst.(j) *. Array.unsafe_get src (s + i)
        done
      | Min ->
        for i = 0 to m - 1 do
          let j = d + (i * ds) in
          dst.(j) <- fmin dst.(j) (Array.unsafe_get src (s + i))
        done
      | Max ->
        for i = 0 to m - 1 do
          let j = d + (i * ds) in
          dst.(j) <- fmax dst.(j) (Array.unsafe_get src (s + i))
        done
  end

(* The block loops of a binary node, writing into [a]: vector ⊛ vector,
   vector ⊛ constant and constant ⊛ vector, for [i < m <= block]. *)
let vv op (a : float array) (b : float array) m =
  match op with
  | Expr.Add ->
    for i = 0 to m - 1 do
      Array.unsafe_set a i (Array.unsafe_get a i +. Array.unsafe_get b i)
    done
  | Expr.Mul ->
    for i = 0 to m - 1 do
      Array.unsafe_set a i (Array.unsafe_get a i *. Array.unsafe_get b i)
    done
  | _ -> assert false

let vc op (a : float array) y m =
  match op with
  | Expr.Add -> for i = 0 to m - 1 do Array.unsafe_set a i (Array.unsafe_get a i +. y) done
  | Expr.Mul -> for i = 0 to m - 1 do Array.unsafe_set a i (Array.unsafe_get a i *. y) done
  | _ -> assert false

let cv op x (b : float array) m =
  match op with
  | Expr.Add -> for i = 0 to m - 1 do Array.unsafe_set b i (x +. Array.unsafe_get b i) done
  | Expr.Mul -> for i = 0 to m - 1 do Array.unsafe_set b i (x *. Array.unsafe_get b i) done
  | _ -> assert false

(* A block expression instantiated for one job: [fill lo m] leaves the
   values at points [lo, lo+m) of the leaf dimension in [v.(0 .. m-1)].
   Every node fills its own scratch, or its operand's in place. Gathers
   find their current base at [bases.(term)]. *)
type node = { v : float array; fill : int -> int -> unit }

let instantiate c st bases e =
  let vd = c.vd and point = st.point in
  let rec inst = function
    | B_const x -> { v = Array.make block x; fill = (fun _ _ -> ()) }
    | B_gather { pos; term; step } ->
      let data = st.bufs.(pos) and v = Array.create_float block in
      let len = Array.length data in
      let fill lo m =
        let first = bases.(term) + (step * lo) in
        let last = first + (step * (m - 1)) in
        if first < 0 || first >= len || last < 0 || last >= len then
          invalid_arg "index out of bounds";
        (* a unit-stride run is one memmove: 14–23% off the exec-fp32
           items whose leaves read unit stride (EXPERIMENTS.md) *)
        if step = 1 then Array.blit data first v 0 m
        else
          for i = 0 to m - 1 do
            Array.unsafe_set v i (Array.unsafe_get data (first + (i * step)))
          done
      in
      { v; fill }
    | B_bin (op, a, B_const y) ->
      let a = inst a in
      { a with fill = (fun lo m -> a.fill lo m; vc op a.v y m) }
    | B_bin (op, B_const x, b) ->
      let b = inst b in
      { b with fill = (fun lo m -> b.fill lo m; cv op x b.v m) }
    | B_bin (op, a, b) ->
      let a = inst a and b = inst b in
      { a with fill = (fun lo m -> a.fill lo m; b.fill lo m; vv op a.v b.v m) }
    | B_scalar f ->
      let g = f st and v = Array.create_float block in
      { v;
        fill =
          (fun lo m ->
            for i = 0 to m - 1 do
              if vd >= 0 then point.(vd) <- lo + i;
              v.(i) <- g ()
            done) }
  in
  inst e

(* The leaf: points [lo, lo+n) of [vd] at the state's other coordinates,
   a block at a time, folded into [acc] from [bases.(0)] on. *)
let leaf c acc bases (root : node) =
  let ds = if c.vd < 0 then 0 else c.astride.(c.vd) in
  let fold =
    match c.pw with
    | Some op -> fun a m -> accumulate op acc a ds root.v 0 m
    | None ->
      let v = root.v in
      fun a m ->
        for i = 0 to m - 1 do
          acc.(a + (i * ds)) <- Array.unsafe_get v i
        done
  in
  fun lo n ->
    let a = bases.(0) and p = ref lo and hi = lo + n in
    while !p < hi do
      let m = min block (hi - !p) in
      root.fill !p m;
      fold (a + (ds * !p)) m;
      p := !p + m
    done

(* --- per-level profiling ---------------------------------------------- *)

let level_path l = "L" ^ string_of_int l

(* Flush one job's per-step times: [tot.(l)] is the inclusive time of
   step [l] (deeper steps included), so self times telescope; the last
   slot is the leaf calls, which run the last step's level (the cost
   model prices that level with the leaf, {!Mdh_lowering.Cost.level_attribution}).
   The job's setup residue goes to the outermost step's level — the leaf
   when there is no other step — and its wall to the enclosing "exec"
   cell, so the per-level times of a run sum to its exec cell by
   construction, which the tests pin. *)
let flush_profile c ~wall tot cnt =
  let digest = c.digest in
  let last = Array.length c.steps - 1 in
  if last < 1 then
    Profile.add_n ~digest ~path:"leaf" ~count:(if last = 0 then cnt.(0) else 1) wall
  else begin
    for l = 0 to last - 1 do
      Profile.add_n ~digest ~path:(level_path c.step_levels.(l)) ~count:cnt.(l)
        (tot.(l) -. tot.(l + 1))
    done;
    Profile.add_n ~digest ~path:"leaf" ~count:cnt.(last) tot.(last);
    Profile.add ~digest ~path:(level_path c.step_levels.(0)) (wall -. tot.(0))
  end;
  Profile.add ~digest ~path:"exec" wall

(* One job: the box's dims restricted to their ranges, every other level
   looped in full, folding into [acc]. Row [l] of [rows] holds every
   address term with the dims of steps [0, l) applied, so the row the
   leaf reads costs one multiply-add per term per loop iteration above
   it. With the profiler on, a clock read at each step entry (the
   innermost: each leaf call). *)
let run_job c bufs op acc ranges ~prof =
  let t0 = if prof then Clock.now_ns () else 0L in
  let st = mk_state c bufs in
  let point = st.point in
  let steps =
    Array.map
      (function
        | S_loop { dim; _ } as s -> (
          match List.assoc_opt dim ranges with
          | Some (lo, sz) -> S_loop { dim; lo; hi = lo + sz }
          | None -> s)
        | s -> s)
      c.steps
  in
  let last = Array.length steps - 1 in
  let nt = Array.length op.terms in
  let rows = Array.init (max 1 (last + 1)) (fun _ -> Array.map (fun t -> t.k) op.terms) in
  (* each step's coefficient per term; a tile's outer loop sets no dim *)
  let dcoef =
    Array.map
      (function
        | S_loop { dim; _ } | S_tile_inner { dim; _ } ->
          Array.map (fun t -> t.coef.(dim)) op.terms
        | S_tile_outer _ -> Array.make nt 0)
      steps
  in
  let enter l x =
    let src = rows.(l) and dst = rows.(l + 1) and dc = dcoef.(l) in
    for t = 0 to nt - 1 do
      Array.unsafe_set dst t (Array.unsafe_get src t + (Array.unsafe_get dc t * x))
    done
  in
  let row = rows.(max 0 last) in
  let leaf = leaf c acc row (instantiate c st row op.value) in
  let tot = Array.make (if prof then last + 1 else 0) 0.0 in
  let cnt = Array.make (if prof then last + 1 else 0) 0 in
  let rec go l =
    if prof then begin
      let t0 = Clock.now_ns () in
      step l;
      tot.(l) <- tot.(l) +. Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0);
      cnt.(l) <- cnt.(l) + 1
    end
    else step l
  and step l =
    match steps.(l) with
    | S_loop { lo; hi; _ } when l = last -> leaf lo (hi - lo)
    | S_tile_inner { tile; extent; slot; _ } when l = last ->
      let b = st.base.(slot) in
      leaf b (min (b + tile) extent - b)
    | S_loop { dim; lo; hi } ->
      for x = lo to hi - 1 do
        point.(dim) <- x;
        enter l x;
        go (l + 1)
      done
    | S_tile_outer { tile; extent; slot } ->
      enter l 0;
      let b = ref 0 in
      while !b < extent do
        st.base.(slot) <- !b;
        go (l + 1);
        b := !b + tile
      done
    | S_tile_inner { dim; tile; extent; slot } ->
      let b = st.base.(slot) in
      for x = b to min (b + tile) extent - 1 do
        point.(dim) <- x;
        enter l x;
        go (l + 1)
      done
  in
  if last < 0 then leaf 0 1 else go 0;
  if prof then
    flush_profile c ~wall:(Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0)) tot cnt

let run_jobs pool jobs =
  match jobs with
  | [| job |] -> job ()
  | _ -> ignore (Pool.run_in_parallel pool jobs)

let exec_output c pool bufs op =
  let prof = Profile.enabled () in
  let init = match c.pw with Some op -> identity op | None -> 0.0 in
  let acc = Array.make c.acc_size init in
  let workers = Pool.num_workers pool in
  let boxes, tree =
    decompose c.plan ~target:(if workers > 1 then workers * 2 else 1)
  in
  (match tree with
  | None ->
    (* cc boxes own disjoint accumulator slabs of one shared array *)
    run_jobs pool
      (Array.of_list
         (List.map (fun box () -> run_job c bufs op acc box ~prof) boxes))
  | Some (td, ranges) ->
    (* fewer cc points than jobs: the tree dim is split too, each job
       into a private accumulator, combined in job order so associativity
       suffices *)
    let op_pw = Option.get c.pw in
    let jobs =
      List.concat_map (fun box -> List.map (fun r -> (td, r) :: box) ranges) boxes
    in
    let partials = Array.of_list (List.map (fun _ -> Array.make c.acc_size init) jobs) in
    run_jobs pool
      (Array.of_list
         (List.mapi (fun j box () -> run_job c bufs op partials.(j) box ~prof) jobs));
    Profile.time_level ~digest:c.digest ~path:(level_path c.tree_level) (fun () ->
        Array.iter (fun part -> accumulate op_pw acc 0 1 part 0 c.acc_size) partials));
  (* post-scan ps dimensions, innermost first: each row of the scanned dim
     folds in the previous one *)
  let sstride = row_major_strides c.acc_shape in
  Array.iteri
    (fun k (d, op) ->
      let stride = sstride.(d) and extent = c.acc_shape.(d) in
      if extent > 1 then begin
        let pass () =
          let outer = c.acc_size / (stride * extent) in
          for o = 0 to outer - 1 do
            let row0 = o * stride * extent in
            for x = 1 to extent - 1 do
              let row = row0 + (x * stride) in
              accumulate op acc row 1 acc (row - stride) stride
            done
          done
        in
        let lvl = c.scan_levels.(k) in
        let path = if lvl >= 0 then level_path lvl else "scan" in
        Profile.time_level ~digest:c.digest ~path pass
      end)
    c.scans;
  acc

(* The output tensor of [op]: a direct write adopts the fresh accumulator
   as the store, rounded to fp32 in place; otherwise it is scattered
   through the out view into zeros. *)
let write_back c op acc =
  let o = op.out in
  if op.direct_write then Dense.of_floats Scalar.Fp32 o.Md_hom.out_shape acc
  else begin
    let out = Dense.create Scalar.Fp32 o.Md_hom.out_shape in
    let lin = ref 0 in
    Shape.iter c.acc_shape (fun pt ->
        Dense.set out (Index_fn.apply o.Md_hom.out_access.fn pt) (Scalar.f32 acc.(!lin));
        incr lin);
    out
  end

(* --- the digest-keyed compile cache ----------------------------------- *)

let cache : (compiled, string) result Memo.t = Memo.create ()
let record ~hit = Metrics.incr (if hit then m_hits else m_misses)

let cache_key plan md =
  Memo.key [ Plan.digest plan; Format.asprintf "%a" Md_hom.pp md ]

let compiled plan md =
  Memo.find_or_add ~record cache (cache_key plan md) (fun () ->
      let t0 = Clock.now_ns () in
      let result =
        Trace.with_span ~cat:"runtime" "specializer.compile"
          ~args:[ ("hom", md.Md_hom.hom_name); ("digest", Plan.digest plan) ]
          (fun () -> compile plan md)
      in
      let dt = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) in
      Metrics.observe h_compile dt;
      Profile.add ~digest:(Plan.digest plan) ~path:"phase:specializer.compile"
        dt;
      match result with
      | Ok c ->
        Metrics.incr m_compiles;
        Ok c
      | Error _ as e -> e)

let supported plan md =
  match compiled plan md with Ok _ -> Ok () | Error e -> Error e

type stats = { hits : int; misses : int; compiles : int }

let stats () =
  { hits = Metrics.value m_hits;
    misses = Metrics.value m_misses;
    compiles = Metrics.value m_compiles }

let reset_stats () =
  Metrics.reset_counter m_hits;
  Metrics.reset_counter m_misses;
  Metrics.reset_counter m_compiles;
  Memo.reset_stats cache

let clear () = Memo.clear cache

(* --- dispatch entry point --------------------------------------------- *)

(* The compiled closure reads each input's own store: nothing is copied. *)
let bind (md : Md_hom.t) env =
  try
    Some
      (Array.of_list
         (List.map
            (fun (i : Md_hom.input) ->
              match Buffer.env_find_opt env i.inp_name with
              | Some b
                when Scalar.equal_ty (Buffer.ty b) Scalar.Fp32
                     && Shape.equal (Buffer.shape b) i.inp_shape ->
                Dense.floats (Buffer.data b)
              | _ -> raise Exit)
            md.inputs))
  with Exit -> None

let try_run pool (plan : Plan.t) (md : Md_hom.t) env =
  if Array.exists (fun s -> s = 0) md.sizes then None
  else
    match compiled plan md with
    | Error _ -> None
    | Ok c -> (
      match
        Profile.time ~digest:c.digest ~path:"phase:specializer.bind" (fun () -> bind md env)
      with
      | None -> None
      | Some bufs ->
        Trace.with_span ~cat:"runtime" "exec.specialized"
          ~args:[ ("hom", md.Md_hom.hom_name); ("digest", Plan.digest plan) ]
          (fun () ->
            let t0 = Clock.now_ns () in
            let outs =
              List.map
                (fun op ->
                  let acc = exec_output c pool bufs op in
                  ( op.out.Md_hom.out_name,
                    Profile.time_level ~digest:c.digest ~path:"writeback" (fun () ->
                        write_back c op acc) ))
                c.outs
            in
            let env =
              Semantics.adopt_outputs md env (fun o -> List.assoc o.Md_hom.out_name outs)
            in
            let dt = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) in
            Metrics.observe h_run dt;
            Profile.add ~digest:c.digest ~path:"phase:specializer.run" dt;
            Some env))
