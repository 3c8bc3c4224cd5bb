(* Spans recorded from the benchmark's own code around each call into a
   layer. Every span carries the request it belongs to and the name of
   its parent span, so a layer's self time is its duration minus the
   durations of the spans that name it as parent within the same
   request. Spans stay in the Trace buffers until the run ends. *)

module Trace = Mdh_obs.Trace

let cat = "perfbench"

let run ~req ~item ?(parent = "") name f =
  Trace.with_span ~cat
    ~args:[ ("req", string_of_int req); ("item", item); ("parent", parent) ]
    name f

type span = { name : string; req : int; item : string; parent : string; ms : float }

let collect () =
  List.filter_map
    (fun (e : Trace.event) ->
      match e.Trace.ev_ph with
      | Trace.Complete dur when e.Trace.ev_cat = cat ->
        let arg k = Option.value ~default:"" (List.assoc_opt k e.Trace.ev_args) in
        Some
          { name = e.Trace.ev_name; req = int_of_string (arg "req"); item = arg "item";
            parent = arg "parent"; ms = Int64.to_float dur /. 1e6 }
      | _ -> None)
    (Trace.events ())

(* Durations of the spans called [name] (of one [item], if given). *)
let durations ?item spans name =
  List.filter_map
    (fun s ->
      if s.name = name && (item = None || item = Some s.item) then Some s.ms else None)
    spans

(* Median duration of the spans called [name] of [item]. *)
let median spans name item = Stat.median (durations ~item spans name)

(* The duration of each span called [name], by request id. *)
let by_req spans name =
  let h = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = name then Hashtbl.replace h s.req s.ms) spans;
  h

(* Self time of each span called [name] (of one [item], if given): its
   duration minus its children's, matched by request id and parent
   name. *)
let self_times ?item spans name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent = name then
        Hashtbl.replace children s.req
          (s.ms +. Option.value ~default:0.0 (Hashtbl.find_opt children s.req)))
    spans;
  List.filter_map
    (fun s ->
      if s.name = name && (item = None || item = Some s.item) then
        Some (s.ms -. Option.value ~default:0.0 (Hashtbl.find_opt children s.req))
      else None)
    spans

let write_chrome path =
  Out_channel.with_open_text path Trace.write_chrome
