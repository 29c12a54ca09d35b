(* Order statistics of timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Quartiles as Python's [statistics.quantiles xs ~n:4] computes them
   (its default "exclusive" method), so [compare] and outside scripts
   read the same spread from the same runs. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)
  end

(* A tail percentile is reported only when at least ten samples lie
   beyond it; for p90 that takes 100 samples. *)
let p90 xs =
  let n = List.length xs in
  let at_or_below = ((9 * n) + 9) / 10 in
  if n - at_or_below >= 10 then Some (percentile xs 0.9) else None
