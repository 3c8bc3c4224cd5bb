module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Combine = Mdh_combine.Combine
module Trace = Mdh_obs.Trace
module Metrics = Mdh_obs.Metrics

(* gcc invocation vs driver execution: the two phases a compiled-C run
   spends its wall time in, visible on the registry and in Chrome traces *)
let h_build = Metrics.histogram "codegen.cc.build_s"
let h_run = Metrics.histogram "codegen.cc.run_s"

let observed h f =
  let t0 = Mdh_obs.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.observe h
        (Mdh_obs.Clock.ns_to_s
           (Int64.sub (Mdh_obs.Clock.now_ns ()) t0)))
    f

type t = {
  md : Md_hom.t;
  src_path : string;
  exe_path : string;
  log_path : string;
  source : string;
}

let source t = t.source

(* gcc availability is a property of the process environment: probe once *)
let gcc_probe = ref None

let available () =
  match !gcc_probe with
  | Some b -> b
  | None ->
    let b = Sys.command "command -v gcc > /dev/null 2>&1" = 0 in
    gcc_probe := Some b;
    b

(* The driver feeds raw little-endian fp32 through files, so every buffer
   must be fp32 and every reduction a builtin operator the generated C
   implements without a host-supplied combiner. *)
let eligible (md : Md_hom.t) =
  let non_f32 ty = not (Scalar.equal_ty ty Scalar.Fp32) in
  if List.exists (fun (i : Md_hom.input) -> non_f32 i.inp_ty) md.inputs then
    Error "compiled-C backend: non-fp32 input buffer"
  else if List.exists (fun (o : Md_hom.output) -> non_f32 o.out_ty) md.outputs
  then Error "compiled-C backend: non-fp32 output buffer"
  else if
    Array.exists
      (fun op ->
        match Combine.custom_fn_of op with
        | Some fn -> not fn.Combine.builtin
        | None -> false)
      md.combine_ops
  then Error "compiled-C backend: non-builtin reduction operator"
  else Ok ()

let driver_source (md : Md_hom.t) kernel_src =
  let b = Stdlib.Buffer.create 4096 in
  let line fmt =
    Format.kasprintf
      (fun s ->
        Stdlib.Buffer.add_string b s;
        Stdlib.Buffer.add_char b '\n')
      fmt
  in
  let output = List.hd md.outputs in
  let out_n = Shape.num_elements output.Md_hom.out_shape in
  line "/* Standalone driver for the generated OpenMP C kernel: reads each";
  line "   input buffer as raw fp32 from the argv paths, runs the kernel,";
  line "   writes the output buffer as raw fp32 to the last path. */";
  line "#include <stdio.h>";
  line "#include <stdlib.h>";
  line "#include <math.h>";
  line "%s" C_like.min_max_prelude;
  line "";
  line "%s" kernel_src;
  line "static float *mdh_read_f32(const char *path, size_t n)";
  line "{";
  line "  FILE *f = fopen(path, \"rb\");";
  line "  float *buf = (float *)malloc(n * sizeof(float));";
  line "  if (!f || !buf || fread(buf, sizeof(float), n, f) != n) {";
  line "    fprintf(stderr, \"mdh driver: cannot read %%zu floats from %%s\\n\", n, path);";
  line "    exit(2);";
  line "  }";
  line "  fclose(f);";
  line "  return buf;";
  line "}";
  line "";
  line "int main(int argc, char **argv)";
  line "{";
  line "  if (argc != %d) {" (List.length md.inputs + 2);
  line "    fprintf(stderr, \"usage: %%s %s OUT\\n\", argv[0]);"
    (String.concat " "
       (List.map (fun (i : Md_hom.input) -> i.inp_name) md.inputs));
  line "    return 2;";
  line "  }";
  List.iteri
    (fun pos (i : Md_hom.input) ->
      line "  float *%s = mdh_read_f32(argv[%d], %d);" i.inp_name (pos + 1)
        (Shape.num_elements i.inp_shape))
    md.inputs;
  line "  float *%s = (float *)calloc(%d, sizeof(float));"
    output.Md_hom.out_name out_n;
  line "  %s_openmp(%s);" (Kernel.kernel_name md)
    (String.concat ", "
       (output.Md_hom.out_name
       :: List.map (fun (i : Md_hom.input) -> i.inp_name) md.inputs));
  (* the stream variable shares scope with buffers named by the user
     (CCSD(T)'s output is literally "out"), so it must be namespaced *)
  line "  FILE *mdh_out_stream = fopen(argv[%d], \"wb\");"
    (List.length md.inputs + 1);
  line "  if (!mdh_out_stream || fwrite(%s, sizeof(float), %d, mdh_out_stream) != %d) {"
    output.Md_hom.out_name out_n out_n;
  line "    fprintf(stderr, \"mdh driver: cannot write output\\n\");";
  line "    return 2;";
  line "  }";
  line "  fclose(mdh_out_stream);";
  line "  return 0;";
  line "}";
  Stdlib.Buffer.contents b

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let build (md : Md_hom.t) =
  if not (available ()) then Error "compiled-C backend: gcc not found on PATH"
  else
    observed h_build @@ fun () ->
    Trace.with_span ~cat:"codegen" "cc.build"
      ~args:[ ("hom", md.Md_hom.hom_name) ]
    @@ fun () ->
    match eligible md with
    | Error _ as e -> e
    | Ok () -> (
      match Openmp_c.generate md with
      | Error e ->
        Error
          (Format.asprintf "compiled-C backend: %a" Kernel.pp_error e)
      | Ok kernel_src ->
        let src_path = Filename.temp_file "mdh_cc_" ".c" in
        let exe_path = Filename.temp_file "mdh_cc_" ".bin" in
        let log_path = Filename.temp_file "mdh_cc_" ".log" in
        let source = driver_source md kernel_src in
        write_file src_path source;
        let cmd =
          Filename.quote_command "gcc" ~stdout:log_path ~stderr:log_path
            [ "-O3"; "-fopenmp"; "-o"; exe_path; src_path; "-lm" ]
        in
        if Sys.command cmd <> 0 then
          Error ("compiled-C backend: gcc failed:\n" ^ read_file log_path)
        else Ok { md; src_path; exe_path; log_path; source })

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

let cleanup t =
  List.iter remove_quiet [ t.src_path; t.exe_path; t.log_path ]

let write_f32_file path (d : Dense.t) =
  let a = Dense.floats d in
  let b = Bytes.create (4 * Array.length a) in
  Array.iteri (fun i x -> Bytes.set_int32_le b (4 * i) (Int32.bits_of_float x)) a;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

(* Fills the output tensor's own store; fp32 bits widen exactly, so no
   rounding is left to do. *)
let read_f32_file path out =
  In_channel.with_open_bin path (fun ic ->
      match In_channel.really_input_string ic (4 * Array.length out) with
      | None -> Error "compiled-C backend: short output read"
      | Some s ->
        Array.iteri
          (fun i _ -> out.(i) <- Int32.float_of_bits (String.get_int32_le s (4 * i)))
          out;
        Ok ())

let run t env =
  observed h_run @@ fun () ->
  Trace.with_span ~cat:"codegen" "cc.run"
    ~args:[ ("hom", t.md.Md_hom.hom_name) ]
  @@ fun () ->
  let md = t.md in
  match Semantics.alloc_outputs md env with
  | exception Semantics.Semantic_error e -> Error e
  | env' ->
    let in_paths =
      List.map
        (fun (i : Md_hom.input) ->
          let path = Filename.temp_file "mdh_cc_in_" ".f32" in
          write_f32_file path (Buffer.data (Buffer.env_find env i.inp_name));
          path)
        md.inputs
    in
    let out_path = Filename.temp_file "mdh_cc_out_" ".f32" in
    let cmd = Filename.quote_command t.exe_path (in_paths @ [ out_path ]) in
    let rc = Sys.command cmd in
    let finish r =
      List.iter remove_quiet (out_path :: in_paths);
      r
    in
    if rc <> 0 then
      finish (Error (Printf.sprintf "compiled-C backend: driver exited %d" rc))
    else
      let output = List.hd md.outputs in
      let out = Dense.floats (Buffer.data (Buffer.env_find env' output.Md_hom.out_name)) in
      match read_f32_file out_path out with
      | Error _ as e -> finish e
      | Ok () -> finish (Ok env')

let execute md env =
  match build md with
  | Error _ as e -> e
  | Ok t ->
    let r = run t env in
    cleanup t;
    r
