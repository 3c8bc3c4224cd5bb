(* Order statistics over latency samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let gmean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun s x -> s +. log x) 0.0 xs /. float (List.length xs))

(* Geometric mean of the medians of several sample sets: the figure
   over items, each item weighted alike. *)
let gmean_of_medians sets = gmean (List.map median sets)

(* The highest percentile with at least [beyond] samples above it is the
   [beyond+1]-th largest sample; returns (value, percentile, count). With
   fewer than [beyond+1] samples there is no such percentile and the
   median stands in (percentile 50). *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n > beyond then
    let i = n - beyond - 1 in
    (a.(i), 100.0 *. float (i + 1) /. float n, n)
  else (median xs, 50.0, n)
