module Mat = Sn_numerics.Mat

let identity n = Mat.init n n (fun i j -> if i = j then 1.0 else 0.0)

let mul a b =
  let nr = Mat.rows a and nk = Mat.cols a and nc = Mat.cols b in
  if nk <> Mat.rows b then
    invalid_arg
      (Printf.sprintf "Dense.mul: %dx%d * %dx%d" nr nk (Mat.rows b) nc);
  let c = Array.make (nr * nc) 0.0 in
  for i = 0 to nr - 1 do
    for k = 0 to nk - 1 do
      let aik = Mat.get a i k in
      if aik <> 0.0 then
        for j = 0 to nc - 1 do
          c.((i * nc) + j) <- c.((i * nc) + j) +. (aik *. Mat.get b k j)
        done
    done
  done;
  Mat.of_flat ~rows:nr ~cols:nc c

let mul_vec m v =
  if Mat.cols m <> Array.length v then
    invalid_arg
      (Printf.sprintf "Dense.mul_vec: %dx%d * %d" (Mat.rows m) (Mat.cols m)
         (Array.length v));
  Array.init (Mat.rows m) (fun i ->
      let acc = ref 0.0 in
      for j = 0 to Mat.cols m - 1 do
        acc := !acc +. (Mat.get m i j *. v.(j))
      done;
      !acc)

let is_symmetric ?(tol = 1e-9) m =
  Mat.rows m = Mat.cols m
  &&
  let ok = ref true in
  for i = 0 to Mat.rows m - 1 do
    for j = i + 1 to Mat.cols m - 1 do
      if Float.abs (Mat.get m i j -. Mat.get m j i) > tol then ok := false
    done
  done;
  !ok

let max_abs_diff a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Dense.max_abs_diff: dimension mismatch (%d vs %d)"
         (Array.length a) (Array.length b));
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := Float.max !acc (Float.abs (a.(i) -. b.(i)))
  done;
  !acc
