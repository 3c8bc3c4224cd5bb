(* What one benchmark run reports: named metrics with units, request
   counts, and a correctness verdict. *)

module J = Mdh_obs.Json

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* what makes the run incorrect *)
}

let create () = { attempted = 0; failed = 0; problems = [] }

(* A failed request: an error reply, a shed or a transport error. *)
let fail t why =
  if t.failed < 20 then prerr_endline ("failed: " ^ why);
  t.failed <- t.failed + 1

(* Something that makes the run's outputs incorrect. *)
let problem t why = t.problems <- why :: t.problems

(* A request whose output or reply is wrong. *)
let mismatch t why =
  fail t why;
  problem t why

(* Peak resident set size of process [pid] ("self" for this one), MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_lines
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float kb /. 1024.0))
         | _ -> None)
  |> Option.value ~default:nan

let row fmt = Printf.printf (fmt ^^ "\n%!")

(* The last line of standard output: the benchmark's result. A value
   that is not a finite number is a defect of the benchmark: no result. *)
let emit t metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then begin
        Printf.eprintf "perfbench: %s is not a number (%g)\n" x.name x.value;
        exit 3
      end)
    metrics;
  List.iter (fun w -> prerr_endline ("incorrect: " ^ w)) (List.rev t.problems);
  (* a rate that is 0 on correct code cannot be a metric of its own *)
  row "fail_rate %.6f (%d of %d requests failed)"
    (float t.failed /. float (max 1 t.attempted)) t.failed t.attempted;
  let m (x : metric) =
    (x.name, J.obj [ ("value", Printf.sprintf "%.17g" x.value); ("unit", J.quote x.unit_) ])
  in
  print_endline
    (J.obj
       [ ("correct", if t.problems = [] then "true" else "false");
         ("attempted", string_of_int t.attempted);
         ("failed", string_of_int t.failed);
         ("metrics", J.obj (List.map m metrics)) ])
