(* Plan-level execution profiler: wall time attributed to (plan digest,
   level path) cells. The runtime reports level-addressed samples while a
   profiled run executes; the CLI snapshots per digest and renders them
   against the cost model's attribution.

   Same concurrency discipline as Metrics: cell registration is rare and
   mutex-protected, accumulation into a registered cell is lock-free
   atomics (the float CAS loop compares the exact box it read, so the
   retry is ABA-safe). When profiling is off every entry point is a
   single atomic load — runs are unaffected and no cells appear. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type cell = {
  p_digest : string;
  p_path : string;
  p_count : int Atomic.t;
  p_total : float Atomic.t; (* seconds *)
}

let registry : (string * string, cell) Hashtbl.t = Hashtbl.create 64
let order : (string * string) list ref = ref []
let reg_mutex = Mutex.create ()

let with_reg f =
  Mutex.lock reg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mutex) f

let cell ~digest ~path =
  let key = (digest, path) in
  match Hashtbl.find_opt registry key with
  | Some c -> c
  | None ->
    with_reg (fun () ->
        (* re-check under the lock: another domain may have registered it
           between our lock-free miss and taking the mutex *)
        match Hashtbl.find_opt registry key with
        | Some c -> c
        | None ->
          let c =
            { p_digest = digest;
              p_path = path;
              p_count = Atomic.make 0;
              p_total = Atomic.make 0.0 }
          in
          Hashtbl.add registry key c;
          order := key :: !order;
          c)

let rec atomic_update a f =
  let v = Atomic.get a in
  let v' = f v in
  if v' != v && not (Atomic.compare_and_set a v v') then atomic_update a f

let add ~digest ~path seconds =
  if Atomic.get enabled_flag then begin
    let c = cell ~digest ~path in
    Atomic.incr c.p_count;
    atomic_update c.p_total (fun t -> t +. seconds)
  end

let add_n ~digest ~path ~count seconds =
  if Atomic.get enabled_flag && count > 0 then begin
    let c = cell ~digest ~path in
    ignore (Atomic.fetch_and_add c.p_count count);
    atomic_update c.p_total (fun t -> t +. seconds)
  end

let timed ~digest ~paths f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) in
        List.iter (fun path -> add ~digest ~path dt) paths)
      f
  end

let time ~digest ~path f = timed ~digest ~paths:[ path ] f
let time_level ~digest ~path f = timed ~digest ~paths:[ path; "exec" ] f

type entry = { path : string; count : int; total_s : float }

let snapshot digest =
  let keys = with_reg (fun () -> List.rev !order) in
  List.filter_map
    (fun ((d, _) as key) ->
      if not (String.equal d digest) then None
      else
        match with_reg (fun () -> Hashtbl.find_opt registry key) with
        | None -> None
        | Some c ->
          Some
            { path = c.p_path;
              count = Atomic.get c.p_count;
              total_s = Atomic.get c.p_total })
    keys

let digests () =
  let keys = with_reg (fun () -> List.rev !order) in
  List.fold_left
    (fun acc (d, _) -> if List.mem d acc then acc else acc @ [ d ])
    [] keys

let reset () =
  with_reg (fun () ->
      Hashtbl.reset registry;
      order := [])
