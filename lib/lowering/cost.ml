module Md_hom = Mdh_core.Md_hom
module Combine = Mdh_combine.Combine
module Index_fn = Mdh_tensor.Index_fn
module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Device = Mdh_machine.Device
module Roofline = Mdh_machine.Roofline
module Util = Mdh_support.Util

type codegen = {
  cg_name : string;
  base_compute_eff : float;
  base_bw_eff : float;
}

let tuned_codegen = { cg_name = "tuned"; base_compute_eff = 0.80; base_bw_eff = 0.90 }
let good_codegen = { cg_name = "good"; base_compute_eff = 0.65; base_bw_eff = 0.80 }
let plain_codegen = { cg_name = "plain"; base_compute_eff = 0.55; base_bw_eff = 0.75 }
let jit_codegen = { cg_name = "jit"; base_compute_eff = 0.45; base_bw_eff = 0.65 }

type analysis = {
  stats : Roofline.stats;
  efficiency : Roofline.efficiency;
  breakdown : Roofline.breakdown;
  achieved_units : int;
  tile_working_set_bytes : int;
  n_tiles : int;
}

(* An input access has unit stride in dimension [d] when some affine access's
   last (fastest-varying) coordinate carries coefficient 1 on [d]. *)
let unit_stride_access (md : Md_hom.t) d =
  List.exists
    (fun (i : Md_hom.input) ->
      List.exists
        (fun (a : Md_hom.access) ->
          match a.fn with
          | Index_fn.Affine { coords; _ } when Array.length coords > 0 ->
            (coords.(Array.length coords - 1)).Index_fn.coeffs.(d) = 1
          | _ -> false)
        i.accesses)
    md.inputs

let clamp_frac x = Float.min 1.0 (Float.max 1e-4 x)

let analyse_plan ?(include_transfers = false) (md : Md_hom.t) (dev : Device.t) cg
    (plan : Plan.t) =
    let rank = Md_hom.rank md in
    let points = float_of_int (Md_hom.total_points md) in
    (* every iteration point also feeds one combine application per
       reduction dimension (the fold the directive abstracts away) *)
    let fold_ops =
      Array.fold_left
        (fun acc op -> if Combine.is_reduction op then acc + 1 else acc)
        0 md.combine_ops
    in
    let base_flops =
      points *. float_of_int (max 1 (Md_hom.flops_per_point md) + fold_ops)
    in

    (* --- parallelism: the plan already did the counting --- *)
    let parallel_dims = plan.Plan.parallel_dims in
    let used_layers = plan.Plan.used_layers in
    let achieved_units = Plan.parallelism plan in
    let parallel_fraction =
      clamp_frac
        (float_of_int achieved_units /. float_of_int dev.Device.compute_saturation_units)
    in

    (* --- vectorisation quality --- *)
    let innermost_layer = Array.length dev.Device.layers - 1 in
    let innermost_parallel_dim =
      List.fold_left
        (fun acc d -> match acc with Some m when m > d -> acc | _ -> Some d)
        None parallel_dims
    in
    let vector_eff =
      if not (List.mem innermost_layer used_layers) then 1.0
      else
        match innermost_parallel_dim with
        | None -> 1.0
        | Some vd ->
          let reduction_penalty =
            if Combine.is_reduction md.combine_ops.(vd) then 0.6 else 1.0
          in
          let stride_penalty = if unit_stride_access md vd then 1.0 else 0.4 in
          reduction_penalty *. stride_penalty
    in

    (* --- reduction parallelisation costs --- *)
    let cc_par_iters =
      List.fold_left
        (fun acc d ->
          if Combine.is_reduction md.combine_ops.(d) then acc else acc * md.sizes.(d))
        1 parallel_dims
    in
    let par_reduction_dims =
      List.filter (fun d -> Combine.is_reduction md.combine_ops.(d)) parallel_dims
    in
    let result_cells = float_of_int (Shape.num_elements (Md_hom.result_shape md)) in
    let out_elem_bytes =
      List.fold_left (fun acc (o : Md_hom.output) -> acc + Scalar.size_bytes o.out_ty) 0
        md.outputs
    in
    let leftover_units =
      max 1 (achieved_units / max 1 (min cc_par_iters achieved_units))
    in
    let n_par_red = List.length par_reduction_dims in
    let split_per_red_dim =
      if n_par_red = 0 then 1
      else
        max 2
          (int_of_float
             (Float.round
                (float_of_int leftover_units ** (1.0 /. float_of_int n_par_red))))
    in
    let combine_flops = ref 0.0 in
    let combine_cache_bytes = ref 0.0 in
    let extra_launches = ref 0 in
    let scan_factor = ref 1.0 in
    List.iter
      (fun d ->
        let s = min md.sizes.(d) split_per_red_dim in
        match md.combine_ops.(d) with
        | Combine.Pw _ ->
          (* record-typed operators combine several fields; approximate the
             combine cost by the output element width *)
          let cf_ops = float_of_int (max 1 (out_elem_bytes / 4)) in
          combine_flops := !combine_flops +. (result_cells *. float_of_int (s - 1) *. cf_ops);
          combine_cache_bytes :=
            !combine_cache_bytes
            +. (result_cells *. float_of_int (out_elem_bytes * s) *. 2.0);
          (* the tree combine runs hierarchically inside the kernel; one
             extra pass finalises cross-block partials *)
          if dev.Device.kind = Device.Gpu then extra_launches := !extra_launches + 1
        | Combine.Ps _ ->
          (* two-phase parallel scan roughly doubles the work of that pass *)
          scan_factor := 2.0
        | Combine.Cc -> ())
      par_reduction_dims;
    let flops = (base_flops *. !scan_factor) +. !combine_flops in

    (* --- memory traffic --- *)
    let box = plan.Plan.tile_sizes in
    let n_tiles =
      let acc = ref 1 in
      for d = 0 to rank - 1 do
        acc := !acc * Util.ceil_div md.sizes.(d) box.(d)
      done;
      !acc
    in
    let in_tile = Footprint.tile_input_bytes md ~box in
    let out_tile = Footprint.tile_output_bytes md ~box in
    let working_set = in_tile + out_tile in
    let tiled_read_traffic = float_of_int n_tiles *. float_of_int in_tile in
    let naive_read = Footprint.naive_read_bytes md in
    let compulsory_read = float_of_int (Md_hom.input_bytes md) in
    let out_bytes = float_of_int (Md_hom.bytes_written md) in
    let n_levels = Array.length dev.Device.mem in
    let level_bytes = Array.make n_levels 0.0 in
    for i = 0 to n_levels - 1 do
      let reads =
        if i = n_levels - 1 then naive_read
        else if working_set <= dev.Device.mem.(i + 1).Device.capacity_bytes then
          Float.min naive_read (Float.max compulsory_read tiled_read_traffic)
        else naive_read
      in
      (* traffic cannot shrink moving inward *)
      let reads = if i > 0 then Float.max reads (level_bytes.(i - 1)) else reads in
      level_bytes.(i) <- reads
    done;
    (* write traffic: outputs stream through every level; parallel-reduction
       partials stay in cache *)
    for i = 0 to n_levels - 1 do
      level_bytes.(i) <- level_bytes.(i) +. out_bytes
    done;
    if n_levels > 1 then
      level_bytes.(n_levels - 1) <- level_bytes.(n_levels - 1) +. !combine_cache_bytes;

    (* --- bandwidth saturation: few concurrent units cannot fill DRAM --- *)
    let saturation =
      clamp_frac
        (Float.max dev.Device.min_bw_fraction
           (float_of_int achieved_units /. float_of_int dev.Device.saturation_units))
    in
    let efficiency =
      { Roofline.parallel_fraction;
        compute_efficiency = clamp_frac (cg.base_compute_eff *. vector_eff);
        bandwidth_efficiency = clamp_frac (cg.base_bw_eff *. saturation) }
    in
    let link_bytes =
      if include_transfers then float_of_int (Md_hom.input_bytes md) +. out_bytes else 0.0
    in
    let stats =
      { Roofline.flops;
        level_bytes;
        link_bytes;
        launches = 1 + !extra_launches;
        serial_ops = 0.0 }
    in
    let breakdown = Roofline.estimate dev efficiency stats in
    { stats; efficiency; breakdown; achieved_units;
      tile_working_set_bytes = working_set; n_tiles }

(* --- per-level attribution -------------------------------------------- *)

type level_share = {
  ls_path : string;
  ls_label : string;
  ls_fraction : float;
}

let level_attribution (plan : Plan.t) =
  (* iteration count a level contributes at its own depth *)
  let iters = function
    | Plan.Distribute { extents; _ } -> List.fold_left ( * ) 1 extents
    | Plan.Tree_reduce { extent; _ } -> extent
    | Plan.Tile { tile; extent; _ } -> Util.ceil_div extent tile
    | Plan.Seq { extent; _ } -> extent
    | Plan.Accumulate { extent; _ } -> extent
    | Plan.Scan { extent; _ } -> extent
  in
  (* weight of a level = how many times its loop body is entered (the
     running product of enclosing iteration counts); the leaf additionally
     carries the scalar-function cost per point. This is the model-side
     counterpart of the profiler's per-level self time: loop control is
     priced per entry, point work per flop. An innermost level that is one
     loop (not a scan, whose post-scan pass is its own cost, nor a
     multi-dim distribution, whose outer dims loop above the leaf) is run
     by the executor's leaf a block at a time, so its entries are priced
     with the leaf's. *)
  let entered = ref 1.0 in
  let weights =
    List.mapi
      (fun i lvl ->
        let w = !entered *. float_of_int (max 1 (iters lvl)) in
        entered := w;
        (i, lvl, w))
      plan.Plan.levels
  in
  let levels, leaf_loop =
    match List.rev weights with
    | (_, (( Plan.Distribute { dims = [ _ ]; _ } | Plan.Tree_reduce _ | Plan.Seq _
           | Plan.Accumulate _ ) as lvl), w)
      :: rest ->
      (List.rev rest, Some (lvl, w))
    | _ -> (weights, None)
  in
  let leaf_w =
    !entered *. float_of_int (max 1 plan.Plan.point_flops)
    +. (match leaf_loop with Some (_, w) -> w | None -> 0.0)
  in
  let total =
    leaf_w +. List.fold_left (fun a (_, _, w) -> a +. w) 0.0 levels
  in
  List.map
    (fun (i, lvl, w) ->
      { ls_path = "L" ^ string_of_int i;
        ls_label = Format.asprintf "%a" Plan.pp_level lvl;
        ls_fraction = w /. total })
    levels
  @ [ { ls_path = "leaf";
        ls_label =
          (match leaf_loop with
          | None ->
            Printf.sprintf "point: scalar function (%d ops)" plan.Plan.point_flops
          | Some (lvl, _) ->
            Format.asprintf "block loop: %a, scalar function (%d ops)" Plan.pp_level
              lvl plan.Plan.point_flops);
        ls_fraction = leaf_w /. total } ]

let analyse ?include_transfers (md : Md_hom.t) (dev : Device.t) cg sched =
  Result.map
    (fun plan -> analyse_plan ?include_transfers md dev cg plan)
    (Plan_cache.build md dev sched)

let seconds ?include_transfers md dev cg sched =
  Result.map
    (fun a -> a.breakdown.Roofline.total_s)
    (analyse ?include_transfers md dev cg sched)
