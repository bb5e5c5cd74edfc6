(* Exact order statistics over raw samples. Quantiles here are always
   computed from the full sample, never from histogram buckets, so a
   change smaller than a bucket width still shows. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   sample at or below it. [q] in (0, 1]. *)
let quantile xs q =
  if xs = [] then invalid_arg "Stats.quantile: empty sample";
  if not (q > 0. && q <= 1.) then invalid_arg "Stats.quantile: q outside (0, 1]";
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* The midpoint median (mean of the two middle samples when even), used
   to combine repeated measurements of one quantity. *)
let median xs =
  if xs = [] then invalid_arg "Stats.median: empty sample";
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest of p99 / p90 that leaves at least ten samples strictly
   beyond its rank, else the maximum. Returns the level used (1.0 for
   the maximum) and the value. *)
let tail xs =
  let n = List.length xs in
  let beyond q = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  match List.find_opt (fun q -> beyond q >= 10) [ 0.99; 0.9 ] with
  | Some q -> (q, quantile xs q)
  | None -> (1.0, quantile xs 1.0)
