(* Band Cholesky, row by row: entry (k, j) of L is A(k, j) minus the
   dot product of rows k and j over their common band, divided by the
   pivot L(j, j); the pivot itself is the square root of what remains
   of A(k, k).  Both sweeps read L by rows, the backward one column by
   column. *)

let index ~bw k j = (k * bw) + bw + j

let dim ~bw l =
  if bw < 0 || Array.length l mod (bw + 1) <> 0 then
    invalid_arg "Chol: band storage does not match the bandwidth";
  Array.length l / (bw + 1)

let factor ~bw l =
  let n = dim ~bw l in
  for k = 0 to n - 1 do
    let rk = index ~bw k 0 and lo = max 0 (k - bw) in
    for j = lo to k do
      let rj = index ~bw j 0 in
      let s = ref l.(rk + j) in
      for m = lo to j - 1 do
        s := !s -. (l.(rk + m) *. l.(rj + m))
      done;
      if j < k then l.(rk + j) <- !s /. l.(rj + j)
      else if !s > 0.0 then l.(rk + k) <- sqrt !s
      else raise (Lu.Singular k)
    done
  done

let check ~bw l y =
  if Array.length y <> dim ~bw l then
    invalid_arg "Chol: vector length does not match the factor"

let forward ~bw l y =
  check ~bw l y;
  for k = 0 to Array.length y - 1 do
    let rk = index ~bw k 0 in
    let s = ref y.(k) in
    for m = max 0 (k - bw) to k - 1 do
      s := !s -. (l.(rk + m) *. y.(m))
    done;
    y.(k) <- !s /. l.(rk + k)
  done

let backward ~bw l y =
  check ~bw l y;
  for k = Array.length y - 1 downto 0 do
    let rk = index ~bw k 0 in
    let yk = y.(k) /. l.(rk + k) in
    y.(k) <- yk;
    for m = max 0 (k - bw) to k - 1 do
      y.(m) <- y.(m) -. (l.(rk + m) *. yk)
    done
  done
