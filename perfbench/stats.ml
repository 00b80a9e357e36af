(* Order statistics over float samples.  Quantiles use the nearest-rank
   rule; [infinity] marks a miss (refused, shed or failed request) and
   sorts last. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* The median that reads an even count as the mean of its two middle
   samples.  For a few per-item figures, where the middle two can trade
   places from run to run, nearest rank would jump between them. *)
let midpoint_median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let geomean a =
  if Array.length a = 0 then 0.
  else exp (mean (Array.map log a))

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)
