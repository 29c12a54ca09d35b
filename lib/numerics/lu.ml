exception Singular of int

(* Complex dense LU on arrays of rows, for small dense blocks. *)
module Cplx = struct
  type matrix = Complex.t array array
  type t = { lu : matrix; perm : int array }

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
        perm.(!best) <- tp
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
    { lu; perm }

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
end

(* ------------------------------------------------------------------ *)
(* Real solve on the flat row-major representation of Mat.t: no
   per-row boxing, one copy of the backing store eliminated in place. *)

let solve_mat m b =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Lu.solve_mat: matrix not square";
  if Array.length b <> n then invalid_arg "Lu.solve_mat: dimension mismatch";
  let a = Array.copy (Mat.raw_data m) in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let best = ref k and best_mag = ref (Float.abs a.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let mag = Float.abs a.((i * n) + k) in
      if mag > !best_mag then begin
        best := i;
        best_mag := mag
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
  done;
  let x = Array.init n (fun i -> b.(perm.(i))) in
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
  done;
  x
