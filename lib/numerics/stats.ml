let require_nonempty name a =
  if Array.length a = 0 then invalid_arg ("Stats." ^ name ^ ": empty array")

let mean a =
  require_nonempty "mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let std a =
  require_nonempty "std" a;
  let m = mean a in
  sqrt
    (Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a
    /. float_of_int (Array.length a))

let max_abs a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 a

let slope_db_per_decade freqs dbs =
  let n = Array.length freqs in
  if n <> Array.length dbs then
    invalid_arg "Stats.slope_db_per_decade: length mismatch";
  if n < 2 then invalid_arg "Stats.slope_db_per_decade: need at least 2 points";
  let xs = Array.map log10 freqs in
  let fn = float_of_int n in
  let sx = Array.fold_left ( +. ) 0.0 xs in
  let sy = Array.fold_left ( +. ) 0.0 dbs in
  let sxx = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
  let sxy = ref 0.0 in
  Array.iteri (fun i x -> sxy := !sxy +. (x *. dbs.(i))) xs;
  let denom = (fn *. sxx) -. (sx *. sx) in
  if denom = 0.0 then invalid_arg "Stats.slope_db_per_decade: degenerate x values";
  ((fn *. !sxy) -. (sx *. sy)) /. denom
