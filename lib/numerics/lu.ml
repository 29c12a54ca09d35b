exception Singular of int

(* Complex dense LU on arrays of rows, for the small AC systems. *)
module Cplx = struct
  type matrix = Complex.t array array
  type t = { lu : matrix; perm : int array; sign : int }

  let check_square a =
    let n = Array.length a in
    Array.iter
      (fun r -> if Array.length r <> n then invalid_arg "Lu: matrix not square")
      a;
    n

  (* Doolittle elimination with row partial pivoting on the modulus. *)
  let decompose a =
    let n = check_square a in
    let lu = Array.map Array.copy a in
    let perm = Array.init n (fun i -> i) in
    let sign = ref 1 in
    for k = 0 to n - 1 do
      let best = ref k and best_mag = ref (Complex.norm lu.(k).(k)) in
      for i = k + 1 to n - 1 do
        let m = Complex.norm lu.(i).(k) in
        if m > !best_mag then begin
          best := i;
          best_mag := m
        end
      done;
      if not (Float.is_finite !best_mag) || !best_mag = 0.0 then raise (Singular k);
      if !best <> k then begin
        let tmp = lu.(k) in
        lu.(k) <- lu.(!best);
        lu.(!best) <- tmp;
        let tp = perm.(k) in
        perm.(k) <- perm.(!best);
        perm.(!best) <- tp;
        sign := - !sign
      end;
      let pivot = lu.(k).(k) in
      for i = k + 1 to n - 1 do
        let factor = Complex.div lu.(i).(k) pivot in
        lu.(i).(k) <- factor;
        if Complex.norm factor <> 0.0 then
          for j = k + 1 to n - 1 do
            lu.(i).(j) <- Complex.sub lu.(i).(j) (Complex.mul factor lu.(k).(j))
          done
      done
    done;
    { lu; perm; sign = !sign }

  let solve { lu; perm; _ } b =
    let n = Array.length lu in
    if Array.length b <> n then invalid_arg "Lu.solve: dimension mismatch";
    let x = Array.init n (fun i -> b.(perm.(i))) in
    (* forward substitution: L has unit diagonal *)
    for i = 1 to n - 1 do
      let acc = ref x.(i) in
      for j = 0 to i - 1 do
        acc := Complex.sub !acc (Complex.mul lu.(i).(j) x.(j))
      done;
      x.(i) <- !acc
    done;
    (* back substitution *)
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := Complex.sub !acc (Complex.mul lu.(i).(j) x.(j))
      done;
      x.(i) <- Complex.div !acc lu.(i).(i)
    done;
    x

  let solve_matrix a b = solve (decompose a) b

  (* A = P^T L U, so A^T x = b unrolls as U^T z = b (forward, diagonal
     division), L^T y = z (backward, unit diagonal), x = P^T y.  The
     transposed triangles are read column-wise from the stored factor,
     so no transposed matrix is ever materialized. *)
  let solve_transpose { lu; perm; _ } b =
    let n = Array.length lu in
    if Array.length b <> n then
      invalid_arg "Lu.solve_transpose: dimension mismatch";
    let z = Array.make n Complex.zero in
    for i = 0 to n - 1 do
      let acc = ref b.(i) in
      for j = 0 to i - 1 do
        acc := Complex.sub !acc (Complex.mul lu.(j).(i) z.(j))
      done;
      z.(i) <- Complex.div !acc lu.(i).(i)
    done;
    for i = n - 1 downto 0 do
      let acc = ref z.(i) in
      for j = i + 1 to n - 1 do
        acc := Complex.sub !acc (Complex.mul lu.(j).(i) z.(j))
      done;
      z.(i) <- !acc
    done;
    let x = Array.make n Complex.zero in
    for i = 0 to n - 1 do
      x.(perm.(i)) <- z.(i)
    done;
    x

  let det { lu; sign; _ } =
    let d = ref (if sign >= 0 then Complex.one else Complex.neg Complex.one) in
    Array.iteri (fun i row -> d := Complex.mul !d row.(i)) lu;
    !d

  let dim { lu; _ } = Array.length lu
end

(* ------------------------------------------------------------------ *)
(* Real factorization on the flat row-major representation of Mat.t.

   No per-row boxing: the factor copies the backing store once (a
   single [Array.copy]) and eliminates in place, and it can be refilled
   in place for repeated factorizations of a same-shape system. *)

type rfactor = { fn : int; fa : float array; fperm : int array }

let factor_flat n a perm =
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    let best = ref k and best_mag = ref (Float.abs a.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let m = Float.abs a.((i * n) + k) in
      if m > !best_mag then begin
        best := i;
        best_mag := m
      end
    done;
    if not (Float.is_finite !best_mag) || !best_mag = 0.0 then raise (Singular k);
    if !best <> k then begin
      let rk = k * n and rb = !best * n in
      for j = 0 to n - 1 do
        let tmp = a.(rk + j) in
        a.(rk + j) <- a.(rb + j);
        a.(rb + j) <- tmp
      done;
      let tp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tp
    end;
    let pivot = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let factor = a.((i * n) + k) /. pivot in
      a.((i * n) + k) <- factor;
      if factor <> 0.0 then begin
        let ri = i * n and rk = k * n in
        for j = k + 1 to n - 1 do
          a.(ri + j) <- a.(ri + j) -. (factor *. a.(rk + j))
        done
      end
    done
  done

let factor_mat m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Lu.factor_mat: matrix not square";
  let a = Array.copy (Mat.raw_data m) in
  let perm = Array.make n 0 in
  factor_flat n a perm;
  { fn = n; fa = a; fperm = perm }

(* Refill an existing factor from a same-size matrix, reusing both
   workspaces instead of allocating fresh ones. *)
let refactor_mat f m =
  if Mat.rows m <> f.fn || Mat.cols m <> f.fn then
    invalid_arg "Lu.refactor_mat: dimension mismatch";
  Array.blit (Mat.raw_data m) 0 f.fa 0 (f.fn * f.fn);
  factor_flat f.fn f.fa f.fperm

let solve_factored_into { fn = n; fa = a; fperm = perm } b x =
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Lu.solve_factored_into: dimension mismatch";
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    let ri = i * n in
    for j = 0 to i - 1 do
      acc := !acc -. (a.(ri + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    let ri = i * n in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.(ri + j) *. x.(j))
    done;
    x.(i) <- !acc /. a.(ri + i)
  done

let solve_factored f b =
  let x = Array.make f.fn 0.0 in
  solve_factored_into f b x;
  x

let rdim f = f.fn

let solve_mat a b =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Lu.solve_mat: matrix not square";
  if Array.length b <> n then invalid_arg "Lu.solve_mat: dimension mismatch";
  solve_factored (factor_mat a) b

let invert_mat a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Lu.invert_mat: matrix not square";
  let f = factor_mat a in
  let inv = Mat.make n n in
  let e = Array.make n 0.0 and x = Array.make n 0.0 in
  for j = 0 to n - 1 do
    e.(j) <- 1.0;
    solve_factored_into f e x;
    e.(j) <- 0.0;
    for i = 0 to n - 1 do
      Mat.set inv i j x.(i)
    done
  done;
  inv
