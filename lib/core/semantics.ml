module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Index_fn = Mdh_tensor.Index_fn
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Combine = Mdh_combine.Combine
module Eval = Mdh_expr.Eval

exception Semantic_error of string

let err fmt = Format.kasprintf (fun m -> raise (Semantic_error m)) fmt

let check_inputs (md : Md_hom.t) env =
  List.iter
    (fun (i : Md_hom.input) ->
      match Buffer.env_find_opt env i.inp_name with
      | None -> err "input buffer %S not supplied" i.inp_name
      | Some buf ->
        if not (Scalar.equal_ty (Buffer.ty buf) i.inp_ty) then
          err "input buffer %S has type %s, expected %s" i.inp_name
            (Scalar.ty_to_string (Buffer.ty buf))
            (Scalar.ty_to_string i.inp_ty);
        if not (Shape.equal (Buffer.shape buf) i.inp_shape) then
          err "input buffer %S has shape %s, expected %s" i.inp_name
            (Shape.to_string (Buffer.shape buf))
            (Shape.to_string i.inp_shape))
    md.inputs

let adopt_outputs (md : Md_hom.t) env store =
  check_inputs md env;
  List.fold_left
    (fun env (o : Md_hom.output) -> Buffer.env_add env (Buffer.of_dense o.out_name (store o)))
    env md.outputs

let alloc_outputs md env =
  adopt_outputs md env (fun o -> Dense.create o.Md_hom.out_ty o.Md_hom.out_shape)

let mk_read env buf idx =
  match Buffer.env_find_opt env buf with
  | Some b -> Dense.get (Buffer.data b) idx
  | None -> err "read of unknown buffer %S" buf

let eval_at (md : Md_hom.t) env (o : Md_hom.output) point =
  let iter = List.init (Md_hom.rank md) (fun d -> (md.dims.(d), point.(d))) in
  Eval.eval { Eval.iter; read = mk_read env } o.value

(* Write a fully-combined result tensor (shape = per-dim result extents of
   the evaluated box) into the output buffer through the out_view. [lo] is
   the global origin of the box; collapsed (pw) dimensions index the view at
   their origin. *)
let write_output env (md : Md_hom.t) (o : Md_hom.output) ?(lo = Array.make (Md_hom.rank md) 0)
    tensor =
  let out_buf = Buffer.env_find env o.out_name in
  Dense.iteri tensor (fun t v ->
      let point = Array.mapi (fun d td -> lo.(d) + td) t in
      let out_idx = Index_fn.apply o.out_access.fn point in
      Dense.set (Buffer.data out_buf) out_idx v)

(* Pointwise tensor over a box, reduced axis by axis (innermost first)
   according to the combine operators. *)
let eval_box (md : Md_hom.t) env (o : Md_hom.output) ~lo ~sz =
  let point = Array.make (Md_hom.rank md) 0 in
  let pointwise =
    Dense.of_fn o.out_ty sz (fun local ->
        Array.iteri (fun d l -> point.(d) <- lo.(d) + l) local;
        eval_at md env o point)
  in
  let result = ref pointwise in
  for d = Md_hom.rank md - 1 downto 0 do
    match md.combine_ops.(d) with
    | Combine.Cc -> ()
    | Pw f -> result := Dense.reduce ~dim:d f.apply !result
    | Ps f -> result := Dense.scan ~dim:d f.apply !result
  done;
  !result

let reference (md : Md_hom.t) env =
  let env = alloc_outputs md env in
  let lo = Array.make (Md_hom.rank md) 0 in
  List.iter
    (fun (o : Md_hom.output) ->
      let tensor = eval_box md env o ~lo ~sz:md.sizes in
      write_output env md o tensor)
    md.outputs;
  env

(* In-place execution: accumulate pw dimensions while sweeping the iteration
   space in row-major order, then post-scan ps dimensions. Requires all pw
   operators to coincide when there is more than one pw dimension (the
   accumulation order interleaves them). *)
let exec (md : Md_hom.t) env =
  let env = alloc_outputs md env in
  let rank = Md_hom.rank md in
  let pw_dims =
    List.filter_map
      (fun d ->
        match md.combine_ops.(d) with Combine.Pw f -> Some (d, f) | Cc | Ps _ -> None)
      (List.init rank Fun.id)
  in
  (match pw_dims with
  | [] | [ _ ] -> ()
  | (_, f0) :: rest ->
    if not (List.for_all (fun (_, f) -> String.equal f.Combine.fn_name f0.Combine.fn_name) rest)
    then
      err "exec: multiple pw dimensions with distinct operators (%s); use `reference`"
        (String.concat ", " (List.map (fun (_, f) -> f.Combine.fn_name) pw_dims)));
  let pw_fn = match pw_dims with [] -> None | (_, f) :: _ -> Some f in
  let is_pw = Array.make rank false in
  List.iter (fun (d, _) -> is_pw.(d) <- true) pw_dims;
  let acc_shape = Md_hom.result_shape md in
  List.iter
    (fun (o : Md_hom.output) ->
      let acc = Dense.create o.out_ty acc_shape in
      let visited = Bytes.make (Shape.num_elements acc_shape) '\000' in
      let target = Array.make rank 0 in
      Shape.iter md.sizes (fun point ->
          let v = eval_at md env o point in
          Array.iteri (fun d p -> target.(d) <- (if is_pw.(d) then 0 else p)) point;
          let lin = Shape.linearize acc_shape target in
          if Bytes.get visited lin = '\000' then begin
            Bytes.set visited lin '\001';
            Dense.set_linear acc lin v
          end
          else
            match pw_fn with
            | Some f -> Dense.set_linear acc lin (f.apply (Dense.get_linear acc lin) v)
            | None -> err "exec: repeated write to output cell without a pw operator");
      let acc = ref acc in
      for d = rank - 1 downto 0 do
        match md.combine_ops.(d) with
        | Combine.Ps f -> acc := Dense.scan ~dim:d f.apply !acc
        | Cc | Pw _ -> ()
      done;
      write_output env md o !acc)
    md.outputs;
  env

(* The MDH decomposition law over one box: split each dimension of the box
   into tiles, evaluate sub-boxes, recombine with the dimension's combine
   operator. The returned tensor covers the whole box (cc dims keep their
   box extent, pw dims collapse, ps dims keep extent); the caller writes it
   through [write_output ~lo]. *)
let eval_box_tiled (md : Md_hom.t) env (o : Md_hom.output) ~lo ~sz ~tile_sizes =
  let rank = Md_hom.rank md in
  if Array.length tile_sizes <> rank then
    err "eval_box_tiled: %d tile sizes for rank-%d computation"
      (Array.length tile_sizes) rank;
  Array.iteri
    (fun d t ->
      if t <= 0 then err "eval_box_tiled: non-positive tile size in dimension %d" d)
    tile_sizes;
  let rec go lo sz d =
    if d = rank then eval_box md env o ~lo ~sz
    else begin
      let tile = min tile_sizes.(d) sz.(d) in
      let combined = ref None in
      let pos = ref 0 in
      while !pos < sz.(d) do
        let chunk = min tile (sz.(d) - !pos) in
        let lo' = Array.copy lo and sz' = Array.copy sz in
        lo'.(d) <- lo.(d) + !pos;
        sz'.(d) <- chunk;
        let partial = go lo' sz' (d + 1) in
        (combined :=
           match !combined with
           | None -> Some partial
           | Some acc ->
             Some (Combine.combine_partials md.combine_ops.(d) ~dim:d acc partial));
        pos := !pos + chunk
      done;
      Option.get !combined
    end
  in
  go (Array.copy lo) (Array.copy sz) 0

(* The same law over the whole iteration space. *)
let eval_tiled (md : Md_hom.t) env ~tile_sizes =
  let rank = Md_hom.rank md in
  let env = alloc_outputs md env in
  List.iter
    (fun (o : Md_hom.output) ->
      let tensor =
        eval_box_tiled md env o ~lo:(Array.make rank 0) ~sz:md.sizes ~tile_sizes
      in
      write_output env md o tensor)
    md.outputs;
  env

let result_tensor _md env name = Buffer.data (Buffer.env_find env name)
