(* Order statistics over per-operation samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "type 7" estimator),
   [q] in [0, 1], over a non-empty sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* The ladder a tail percentile is chosen from, highest first. *)
let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest percentile on [ladder] that leaves at least [beyond]
   samples above it out of [n]: a p90 needs 100 samples, a p99 1000.
   [None] when even the median would rest on fewer. *)
let tail_percentile ?(beyond = 10) n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= float_of_int beyond -. 1e-9)
    ladder

let percentile xs p = quantile xs (p /. 100.0)
