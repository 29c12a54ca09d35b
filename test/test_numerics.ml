(* Tests for the sn_numerics library. *)

module Units = Sn_numerics.Units
module Vec = Sn_numerics.Vec
module Mat = Sn_numerics.Mat
module Lu = Sn_numerics.Lu
module Sparse = Sn_numerics.Sparse
module Splu = Sn_numerics.Splu
module Lru = Sn_numerics.Lru
module Cg = Sn_numerics.Cg
module Fft = Sn_numerics.Fft
module Goertzel = Sn_numerics.Goertzel
module Sweep = Sn_numerics.Sweep
module Stats = Sn_numerics.Stats
module Chol = Sn_numerics.Chol

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* a matrix from its rows *)
let mat_of_rows rows =
  Mat.init (Array.length rows) (Array.length rows.(0)) (fun i j ->
      rows.(i).(j))

(* ------------------------------------------------------------------ *)
(* Units *)

let test_db_roundtrip () =
  check_float "ratio 10 is 20 dB" 20.0 (Units.db_of_ratio 10.0);
  check_float "0 dBm is 1 mW" 1.0e-3 (Units.watts_of_dbm 0.0)

let test_dbm_of_vpeak () =
  (* 0.316 Vpeak into 50 ohm = 1 mW = 0 dBm *)
  let v = sqrt (2.0 *. 50.0 *. 1.0e-3) in
  check_close 1e-9 "0 dBm peak voltage" 0.0 (Units.dbm_of_vpeak v);
  check_close 1e-9 "round trip" v (Units.vpeak_of_dbm 0.0)

let test_minus5dbm () =
  (* the paper's injected tone: -5 dBm into 50 ohm is ~0.178 Vpeak *)
  let v = Units.vpeak_of_dbm (-5.0) in
  check_close 1e-3 "-5 dBm Vpeak" 0.1778 v

let test_db_invalid () =
  Alcotest.check_raises "db_of_ratio 0" (Invalid_argument
    "Units.db_of_ratio: argument must be > 0 (got 0)")
    (fun () -> ignore (Units.db_of_ratio 0.0))

let test_eng_format () =
  Alcotest.(check string) "GHz" "3.00 GHz" (Units.eng ~unit:"Hz" 3.0e9);
  Alcotest.(check string) "fF" "120.00 fF" (Units.eng ~unit:"F" 120.0e-15);
  Alcotest.(check string) "mS" "38.00 mS" (Units.eng ~unit:"S" 38.0e-3)

(* ------------------------------------------------------------------ *)
(* Vec / Mat *)

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  check_float "dot" 32.0 (Vec.dot a b);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 a);
  let y = Vec.copy b in
  Vec.axpy 2.0 a y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 6.0; 9.0; 12.0 |] y

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_mat_mul () =
  let a = mat_of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = mat_of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_mat_identity () =
  let a = Mat.init 4 4 (fun i j -> float_of_int ((3 * i) + j + 1)) in
  let i4 = Mat.identity 4 in
  let entries m = Array.init 4 (fun i -> Array.init 4 (Mat.get m i)) in
  let exact = Alcotest.(array (array (float 0.0))) in
  Alcotest.check exact "A*I = A" (entries a) (entries (Mat.mul a i4));
  Alcotest.check exact "I*A = A" (entries a) (entries (Mat.mul i4 a))

let test_mat_symmetry () =
  let s = mat_of_rows [| [| 2.0; -1.0 |]; [| -1.0; 2.0 |] |] in
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric s);
  Mat.set s 0 1 5.0;
  Alcotest.(check bool) "asymmetric" false (Mat.is_symmetric s)

(* ------------------------------------------------------------------ *)
(* LU *)

(* the dense complex reference solve the sparse kernels are checked
   against *)
let dense_csolve a b = Lu.Cplx.solve (Lu.Cplx.decompose a) b

let test_lu_solve_known () =
  let a = mat_of_rows [| [| 4.0; 3.0 |]; [| 6.0; 3.0 |] |] in
  let x = Lu.solve_mat a [| 10.0; 12.0 |] in
  check_close 1e-9 "x0" 1.0 x.(0);
  check_close 1e-9 "x1" 2.0 x.(1)

let test_lu_singular () =
  let a = mat_of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Lu.Singular 1) (fun () ->
      ignore (Lu.solve_mat a [| 1.0; 1.0 |]))

let test_lu_pivoting () =
  (* zero on the diagonal requires pivoting *)
  let a = mat_of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve_mat a [| 3.0; 7.0 |] in
  check_close 1e-12 "x0" 7.0 x.(0);
  check_close 1e-12 "x1" 3.0 x.(1)

let test_lu_complex () =
  (* (1 + i) x = 2i  ->  x = 1 + i *)
  let a = [| [| { Complex.re = 1.0; im = 1.0 } |] |] in
  let b = [| { Complex.re = 0.0; im = 2.0 } |] in
  let x = dense_csolve a b in
  check_close 1e-12 "re" 1.0 x.(0).Complex.re;
  check_close 1e-12 "im" 1.0 x.(0).Complex.im

let prop_lu_random_solve =
  QCheck.Test.make ~count:100 ~name:"LU solves random well-conditioned systems"
    QCheck.(pair (int_range 1 12) (int_range 0 10000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n |] in
      let a =
        Mat.init n n (fun i j ->
            (if i = j then float_of_int n else 0.0)
            +. Random.State.float st 1.0)
      in
      let x_true = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let b = Mat.mul_vec a x_true in
      let x = Lu.solve_mat a b in
      Vec.max_abs_diff x x_true < 1e-8)

(* ------------------------------------------------------------------ *)
(* Envelope Cholesky *)

(* random symmetric entries at (i, j) for first.(i) <= j < i, and a
   diagonal that dominates its row: SPD *)
let random_spd_envelope st first =
  let n = Array.length first in
  let a = Mat.make n n in
  for i = 0 to n - 1 do
    for j = first.(i) to i - 1 do
      let v = Random.State.float st 2.0 -. 1.0 in
      Mat.set a i j v;
      Mat.set a j i v
    done
  done;
  for i = 0 to n - 1 do
    let off = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then off := !off +. Float.abs (Mat.get a i j)
    done;
    Mat.set a i i (!off +. 0.1 +. Random.State.float st 1.0)
  done;
  a

(* the lower triangle of [a] in the envelope [env], which must hold
   its non-zeros, factored in place *)
let chol_factor a env =
  let n = Mat.rows a in
  let l = Array.make (Chol.size env) 0.0 in
  for k = 0 to n - 1 do
    for j = 0 to k do
      if Mat.get a k j <> 0.0 then l.(Chol.index env k j) <- Mat.get a k j
    done
  done;
  Chol.factor env l;
  l

let chol_band ~n ~bw = Chol.envelope (Array.init n (fun k -> max 0 (k - bw)))

let chol_solve a env b =
  let l = chol_factor a env in
  let y = Array.copy b in
  Chol.forward env l ~lanes:1 y;
  Chol.backward env l ~lanes:1 y;
  y

(* A band of half-width [bw], the dense triangle, and a random profile
   each solve as LU does; the profile's solve is bit-equal to the
   dense one, since every term the envelope skips is an exact zero. *)
let prop_chol_matches_lu =
  QCheck.Test.make ~count:100 ~name:"band and dense Cholesky solve as LU does"
    QCheck.(triple (int_range 1 24) (int_range 0 24) (int_range 0 10000))
    (fun (n, bw, seed) ->
      let bw = min bw (n - 1) in
      let st = Random.State.make [| seed; n; bw |] in
      let rhs () = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let close a b x =
        let x_lu = Lu.solve_mat a b in
        Vec.max_abs_diff x x_lu <= 1e-10 *. Stats.max_abs x_lu
      in
      let dense = chol_band ~n ~bw:(n - 1) in
      let a = random_spd_envelope st (Array.init n (fun k -> max 0 (k - bw))) in
      let b = rhs () in
      let first = Array.init n (fun k -> Random.State.int st (k + 1)) in
      let a' = random_spd_envelope st first in
      let b' = rhs () in
      let x' = chol_solve a' (Chol.envelope first) b' in
      close a b (chol_solve a (chol_band ~n ~bw) b)
      && close a b (chol_solve a dense b)
      && close a' b' x'
      && x' = chol_solve a' dense b')

let test_chol_singular () =
  (* pivots 2, 1, then 0.5 - 1 < 0 at row 2, banded or dense *)
  let a =
    mat_of_rows
      [| [| 4.0; 2.0; 0.0 |]; [| 2.0; 2.0; 1.0 |]; [| 0.0; 1.0; 0.5 |] |]
  in
  List.iter
    (fun bw ->
      Alcotest.check_raises
        (Printf.sprintf "negative pivot, bw %d" bw)
        (Lu.Singular 2)
        (fun () -> ignore (chol_factor a (chol_band ~n:3 ~bw))))
    [ 1; 2 ];
  (* a zero pivot is refused too *)
  let ones = mat_of_rows [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  Alcotest.check_raises "zero pivot" (Lu.Singular 1) (fun () ->
      ignore (chol_factor ones (chol_band ~n:2 ~bw:1)));
  Alcotest.check_raises "vector length"
    (Invalid_argument "Chol: vector length does not match the factor")
    (fun () ->
      let env = chol_band ~n:4 ~bw:1 in
      Chol.forward env (Array.make (Chol.size env) 1.0) ~lanes:1 [| 1.0 |]);
  Alcotest.check_raises "five lanes"
    (Invalid_argument "Chol: lanes must be 1..4")
    (fun () ->
      let env = chol_band ~n:1 ~bw:0 in
      Chol.backward env [| 1.0 |] ~lanes:5 (Array.make 5 1.0));
  Alcotest.check_raises "first column right of the diagonal"
    (Invalid_argument "Chol.envelope: a first column is outside 0..row")
    (fun () -> ignore (Chol.envelope [| 0; 2 |]))

(* ------------------------------------------------------------------ *)
(* Sparse / CG *)

let laplacian_1d n =
  (* tridiagonal [-1 2 -1] grounded Laplacian: SPD *)
  let b = Sparse.builder n n in
  for i = 0 to n - 1 do
    Sparse.add b i i 2.0;
    if i > 0 then Sparse.add b i (i - 1) (-1.0);
    if i < n - 1 then Sparse.add b i (i + 1) (-1.0)
  done;
  Sparse.finalize b

let test_sparse_build () =
  let b = Sparse.builder 3 3 in
  Sparse.add b 0 0 1.0;
  Sparse.add b 0 0 2.0;
  (* duplicate: summed *)
  Sparse.add b 2 1 (-4.0);
  Sparse.add b 1 1 0.5;
  let m = Sparse.finalize b in
  Alcotest.(check int) "nnz" 3 (Sparse.nnz m);
  check_float "summed duplicate" 3.0 (Sparse.get m 0 0);
  check_float "entry" (-4.0) (Sparse.get m 2 1);
  check_float "missing is zero" 0.0 (Sparse.get m 0 2)

let test_sparse_cancel () =
  let b = Sparse.builder 2 2 in
  Sparse.add b 0 1 1.0;
  Sparse.add b 0 1 (-1.0);
  Sparse.add b 1 1 5.0;
  let m = Sparse.finalize b in
  Alcotest.(check int) "cancelled entries dropped" 1 (Sparse.nnz m)

(* [finalize] against a reference that walks the triples in insertion
   order: the CSR must match bit for bit, so duplicates are summed left
   to right whatever order the sort visits them in *)
let reference_csr nr triples =
  let sums = Array.init nr (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun (i, j, v) ->
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt sums.(i) j) in
      Hashtbl.replace sums.(i) j (cur +. v))
    triples;
  let row_ptr = Array.make (nr + 1) 0 in
  let entries =
    List.concat
      (List.init nr (fun i ->
           let row =
             Hashtbl.fold
               (fun j v acc -> if v <> 0.0 then (j, v) :: acc else acc)
               sums.(i) []
             |> List.sort (fun (a, _) (b, _) -> compare a b)
           in
           row_ptr.(i + 1) <- row_ptr.(i) + List.length row;
           row))
  in
  (row_ptr, Array.of_list (List.map fst entries),
   Array.of_list (List.map snd entries))

let csr_matches_reference nr nc triples =
  let b = Sparse.builder nr nc in
  List.iter (fun (i, j, v) -> Sparse.add b i j v) triples;
  let m = Sparse.finalize b in
  let row_ptr, col_idx, values = reference_csr nr triples in
  let bits x = Int64.bits_of_float x in
  let ascending = ref true in
  for i = 0 to nr - 1 do
    for k = (Sparse.row_ptr m).(i) + 1 to (Sparse.row_ptr m).(i + 1) - 1 do
      if (Sparse.col_idx m).(k) <= (Sparse.col_idx m).(k - 1) then
        ascending := false
    done
  done;
  Sparse.rows m = nr && Sparse.cols m = nc
  && Sparse.row_ptr m = row_ptr
  && Sparse.col_idx m = col_idx
  && Array.length (Sparse.values m) = Array.length values
  && Array.for_all2
       (fun x y -> Int64.equal (bits x) (bits y))
       (Sparse.values m) values
  && !ascending
  && Array.for_all (fun v -> v <> 0.0) (Sparse.values m)

let prop_finalize_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"finalize = insertion-order reference, bit for bit"
    QCheck.(triple (int_range 1 30) (int_range 1 30) (int_range 0 100_000))
    (fun (nr, nc, seed) ->
      let st = Random.State.make [| seed |] in
      (* values whose sums depend on the summation order, plus pairs
         that cancel exactly; only every other row is used, so empty
         rows occur, and a narrow column range forces duplicates *)
      let pool = [| 0.1; 0.2; 0.3; 1e16; -1e16; 1.0; -0.7; 3.0e-17 |] in
      let width = 1 + Random.State.int st (min nc 4) in
      let triples = ref [] in
      for _ = 1 to Random.State.int st (4 * nr * width) do
        let i = 2 * Random.State.int st ((nr + 1) / 2) in
        let j = Random.State.int st width in
        let v = pool.(Random.State.int st (Array.length pool)) in
        triples := (i, j, v) :: !triples;
        if Random.State.int st 4 = 0 then triples := (i, j, -.v) :: !triples
      done;
      (* one long row exercises the wide-row path *)
      let long =
        List.init (Random.State.int st 80) (fun k ->
            (0, Random.State.int st nc, pool.(k mod Array.length pool)))
      in
      csr_matches_reference nr nc (List.rev !triples @ long))

let test_finalize_edges () =
  Alcotest.(check bool) "0 x 0" true (csr_matches_reference 0 0 []);
  Alcotest.(check bool) "0 x 5" true (csr_matches_reference 0 5 []);
  Alcotest.(check bool) "1 x 1 empty" true (csr_matches_reference 1 1 []);
  Alcotest.(check bool) "1 x 1 summed" true
    (csr_matches_reference 1 1 [ (0, 0, 0.1); (0, 0, 0.2); (0, 0, 0.3) ]);
  Alcotest.(check bool) "1 x 1 cancelled" true
    (csr_matches_reference 1 1 [ (0, 0, 2.5); (0, 0, -2.5) ]);
  let b = Sparse.builder 1 1 in
  Sparse.add b 0 0 2.5;
  Sparse.add b 0 0 (-2.5);
  Alcotest.(check int) "cancelled 1 x 1 stores nothing" 0
    (Sparse.nnz (Sparse.finalize b))

let test_sparse_of_csr () =
  let m =
    Sparse.of_csr ~rows:3 ~cols:3 ~row_ptr:[| 0; 2; 2; 3 |]
      ~col_idx:[| 0; 2; 1 |] ~values:[| 1.0; -2.0; 4.0 |]
  in
  check_float "entry (0,2)" (-2.0) (Sparse.get m 0 2);
  check_float "empty row" 0.0 (Sparse.get m 1 1);
  Alcotest.(check int) "nnz" 3 (Sparse.nnz m);
  let refused what row_ptr col_idx =
    match
      Sparse.of_csr ~rows:2 ~cols:2 ~row_ptr ~col_idx
        ~values:(Array.make (Array.length col_idx) 1.0)
    with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ ": " ^ msg) true
        (String.starts_with ~prefix:"Sparse.of_csr" msg)
  in
  refused "short row_ptr" [| 0; 1 |] [| 0 |];
  refused "unsorted columns" [| 0; 2; 2 |] [| 1; 0 |];
  refused "duplicate column" [| 0; 2; 2 |] [| 1; 1 |];
  refused "column out of range" [| 0; 1; 1 |] [| 2 |];
  refused "decreasing row_ptr" [| 0; 1; 0 |] [||]

let test_sparse_mul_vec () =
  let m = laplacian_1d 4 in
  let v = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (array (float 1e-12)))
    "L*v" [| 0.0; 0.0; 0.0; 5.0 |] (Sparse.mul_vec m v)

let test_sparse_symmetric () =
  Alcotest.(check bool) "laplacian symmetric" true
    (Mat.is_symmetric (Sparse.to_dense (laplacian_1d 10)))

(* the CG solution, failing when the solve did not converge *)
let cg_solve ?tol ?precond m b =
  let r = Cg.solve ?tol ?precond m b in
  if not r.Cg.converged then Alcotest.fail "CG did not converge";
  r.Cg.solution

let test_cg_vs_lu () =
  let n = 20 in
  let m = laplacian_1d n in
  let b = Array.init n (fun i -> sin (float_of_int i)) in
  let x_cg = cg_solve ~tol:1e-12 m b in
  let x_lu = Lu.solve_mat (Sparse.to_dense m) b in
  Alcotest.(check bool) "CG matches LU" true (Vec.max_abs_diff x_cg x_lu < 1e-8)

let test_cg_zero_rhs () =
  let r = Cg.solve (laplacian_1d 5) (Vec.zeros 5) in
  Alcotest.(check bool) "converged" true r.converged;
  check_float "zero solution" 0.0 (Stats.max_abs r.solution)

let test_cg_not_converged () =
  let m = laplacian_1d 50 in
  let b = Array.init 50 (fun i -> float_of_int i) in
  let r = Cg.solve ~max_iter:1 ~tol:1e-14 m b in
  Alcotest.(check bool) "not converged" false r.Cg.converged;
  Alcotest.(check int) "stopped at the cap" 1 r.Cg.iterations

let prop_cg_solves_spd =
  QCheck.Test.make ~count:50 ~name:"CG solves random grounded Laplacians"
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let b = Sparse.builder n n in
      (* random connected resistor chain + ground leaks: SPD *)
      for i = 0 to n - 2 do
        let g = 0.1 +. Random.State.float st 5.0 in
        Sparse.add b i i g;
        Sparse.add b (i + 1) (i + 1) g;
        Sparse.add b i (i + 1) (-.g);
        Sparse.add b (i + 1) i (-.g)
      done;
      for i = 0 to n - 1 do
        Sparse.add b i i (0.01 +. Random.State.float st 1.0)
      done;
      let m = Sparse.finalize b in
      let x_true = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let rhs = Sparse.mul_vec m x_true in
      let x = cg_solve ~tol:1e-12 m rhs in
      Vec.max_abs_diff x x_true < 1e-6)

(* ------------------------------------------------------------------ *)
(* Mg: geometric multigrid preconditioner *)

module Mg = Sn_numerics.Mg

(* 3-D grid Laplacian in the extractor's cell ordering, grounded
   through weak leaks on the top surface — the shape Mg is built
   for *)
let grid_laplacian ?(leak = 1.0e-2) (nx, ny, nz) =
  let n = nx * ny * nz in
  let b = Sparse.builder n n in
  let idx ix iy iz = (iz * nx * ny) + (iy * nx) + ix in
  let couple i j g =
    Sparse.add b i i g;
    Sparse.add b j j g;
    Sparse.add b i j (-.g);
    Sparse.add b j i (-.g)
  in
  for iz = 0 to nz - 1 do
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let here = idx ix iy iz in
        if ix + 1 < nx then couple here (idx (ix + 1) iy iz) 1.0;
        if iy + 1 < ny then couple here (idx ix (iy + 1) iz) 1.3;
        if iz + 1 < nz then couple here (idx ix iy (iz + 1)) 0.7;
        if iz = 0 then Sparse.add b here here leak
      done
    done
  done;
  Sparse.finalize b

let test_mg_cg_vs_lu () =
  let dims = (9, 7, 3) in
  let m = grid_laplacian dims in
  let n = Sparse.rows m in
  let mg = Mg.build ~dims m in
  let st = Random.State.make [| 7 |] in
  let rhs = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let x = cg_solve ~tol:1e-12 ~precond:(Mg.precond mg) m rhs in
  let x_lu = Lu.solve_mat (Sparse.to_dense m) rhs in
  Alcotest.(check bool) "MG-CG matches LU" true
    (Vec.max_abs_diff x x_lu < 1e-7)

(* A one-level hierarchy is the banded-Cholesky direct solve: on every
   axis order (z longest in the last shape) one application is the LU
   solution, and PCG with it converges in one iteration. *)
let test_mg_coarse_exact () =
  List.iter
    (fun ((nx, ny, nz) as dims) ->
      let what = Printf.sprintf "%dx%dx%d" nx ny nz in
      let m = grid_laplacian dims in
      let n = Sparse.rows m in
      let mg = Mg.build ~coarse_limit:n ~dims m in
      Alcotest.(check int) (what ^ " one level") 1 (Mg.levels mg);
      let rhs = Array.init n (fun i -> cos (0.3 *. float_of_int i)) in
      let z = Vec.zeros n in
      Mg.precond mg rhs z;
      let x_lu = Lu.solve_mat (Sparse.to_dense m) rhs in
      let err = Vec.max_abs_diff z x_lu /. Stats.max_abs x_lu in
      Alcotest.(check bool)
        (Printf.sprintf "%s band solve = LU (%.2g)" what err)
        true (err <= 1e-12);
      let r = Cg.solve ~precond:(Mg.precond mg) m rhs in
      Alcotest.(check bool) (what ^ " converged") true r.Cg.converged;
      Alcotest.(check int) (what ^ " PCG iterations") 1 r.Cg.iterations)
    [ (9, 7, 3); (3, 9, 7); (5, 4, 12) ];
  (* a non-positive pivot is refused with the dense factor's error *)
  let dims = (4, 3, 2) in
  let m = grid_laplacian dims in
  let neg =
    Sparse.of_csr ~rows:24 ~cols:24 ~row_ptr:(Sparse.row_ptr m)
      ~col_idx:(Sparse.col_idx m)
      ~values:(Array.map Float.neg (Sparse.values m))
  in
  Alcotest.check_raises "indefinite coarse operator" (Lu.Singular 0) (fun () ->
      ignore (Mg.build ~dims neg))

(* [v_cycle] and a counter of its applications *)
let counted v_cycle =
  let calls = ref 0 in
  ( calls,
    fun r z ->
      incr calls;
      v_cycle r z )

(* PCG tests convergence before it preconditions, so the V-cycle runs
   once per direction the solve uses: once per converged solve on a
   one-level hierarchy (the direct solve), [iterations] times on a
   deeper one.  Counting the calls leaves the solve's bits alone.  A
   block of lanes applies its lane-wide V-cycle as often as its longest
   lane alone would, not the sum over its lanes. *)
let test_mg_precond_count () =
  List.iter
    (fun (what, coarse_limit, dims) ->
      let m = grid_laplacian dims in
      let n = Sparse.rows m in
      let mg = Mg.build ~coarse_limit ~dims m in
      let rhs = Array.init n (fun i -> sin (0.1 *. float_of_int i)) in
      let calls, precond = counted (Mg.precond mg) in
      let r = Cg.solve ~tol:1e-10 ~precond m rhs in
      let plain = Cg.solve ~tol:1e-10 ~precond:(Mg.precond mg) m rhs in
      Alcotest.(check bool) (what ^ " converged") true r.Cg.converged;
      if coarse_limit >= n then begin
        Alcotest.(check int) (what ^ " levels") 1 (Mg.levels mg);
        Alcotest.(check int) (what ^ " applications") 1 !calls
      end
      else begin
        Alcotest.(check bool) (what ^ " levels") true (Mg.levels mg > 1);
        Alcotest.(check int) (what ^ " applications") r.Cg.iterations !calls
      end;
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      Alcotest.(check bool) (what ^ " solution bits") true
        (Array.for_all2 same r.Cg.solution plain.Cg.solution);
      Alcotest.(check int) (what ^ " iterations") plain.Cg.iterations
        r.Cg.iterations;
      Alcotest.(check bool) (what ^ " residual bits") true
        (same r.Cg.residual_norm plain.Cg.residual_norm);
      let cols =
        [| rhs;
           Array.init n (fun i -> if i = n / 2 then 1e-6 else 0.0);
           Array.init n (fun i -> 1e3 *. cos (0.7 *. float_of_int (i * i))) |]
      in
      let alone =
        Array.map
          (fun b ->
            let calls, precond = counted (Mg.precond mg) in
            let r = Cg.solve ~tol:1e-10 ~precond m b in
            (!calls, r.Cg.iterations))
          cols
      in
      let calls, precond = counted (Mg.precond_lanes mg ~lanes:3) in
      let block =
        Cg.solve_lanes ~tol:1e-10 ~precond ~lanes:3 m
          (Array.init (3 * n) (fun k -> cols.(k mod 3).(k / 3)))
      in
      let longest = Array.fold_left (fun a (c, _) -> max a c) 0 alone in
      Alcotest.(check int) (what ^ " block applications") longest !calls;
      Array.iteri
        (fun c (_, it) ->
          Alcotest.(check int)
            (Printf.sprintf "%s lane %d iterations" what c)
            it block.Cg.lane_iterations.(c))
        alone;
      if coarse_limit < n then
        Alcotest.(check bool)
          (what ^ " lanes finish on different iterations")
          true
          (Array.exists (fun (_, it) -> it <> snd alone.(0)) alone))
    [ ("one level", max_int, (9, 7, 3)); ("multi-level", 600, (24, 24, 4)) ]

(* PCG requires a symmetric preconditioner: <M e_i, e_j> = <e_i, M e_j>.
   The symmetric red-black V-cycle must satisfy this to rounding. *)
let test_mg_symmetric () =
  let dims = (6, 5, 2) in
  let m = grid_laplacian dims in
  let n = Sparse.rows m in
  let mg = Mg.build ~coarse_limit:20 ~dims m in
  let basis k = Vec.init n (fun i -> if i = k then 1.0 else 0.0) in
  let apply k =
    let z = Vec.zeros n in
    Mg.precond mg (basis k) z;
    z
  in
  let pairs = [ (0, n - 1); (3, 17); (n / 2, n / 3) ] in
  List.iter
    (fun (i, j) ->
      let mi = apply i and mj = apply j in
      let scale = Float.max (Stats.max_abs mi) (Stats.max_abs mj) in
      Alcotest.(check bool)
        (Printf.sprintf "symmetry (%d,%d)" i j)
        true
        (Float.abs (mi.(j) -. mj.(i)) /. scale < 1e-10))
    pairs

(* the point of multigrid: iteration counts stay near-constant as the
   grid refines, where Jacobi-CG grows with the mesh diameter *)
let test_mg_iterations_flat () =
  let iters dims =
    let m = grid_laplacian dims in
    let mg = Mg.build ~dims m in
    let n = Sparse.rows m in
    let rhs = Array.init n (fun i -> sin (0.1 *. float_of_int i)) in
    let r = Cg.solve ~tol:1e-10 ~precond:(Mg.precond mg) m rhs in
    Alcotest.(check bool) "converged" true r.Cg.converged;
    r.Cg.iterations
  in
  let small = iters (24, 24, 4) in
  let large = iters (48, 48, 4) in
  Alcotest.(check bool)
    (Printf.sprintf "near-constant iterations (%d -> %d)" small large)
    true
    (large <= small + 6 && large <= 30)

(* The substrate's layered profile, as the extractor grids it at its
   default z resolution: a 1 um p+ cap at 0.002 ohm m over 4 x 12.5 um,
   3 x 50 um and 2 x 150 um slabs of 0.2 ohm m bulk, on 7 um cells,
   grounded only through a 3x3 contact patch at the centre of the
   surface.  The slabs are far thicker than the cells are wide, so
   lateral coupling dominates; a hierarchy that coarsens z as well
   leaves error the point smoother cannot reach, and its iteration
   count grows with the lateral size. *)
let layered_substrate n_lat =
  let dx = 7.0e-6 in
  let layers =
    List.concat
      [ [ (1.0e-6, 0.002) ]; List.init 4 (fun _ -> (12.5e-6, 0.2));
        List.init 3 (fun _ -> (50.0e-6, 0.2));
        List.init 2 (fun _ -> (150.0e-6, 0.2)) ]
    |> Array.of_list
  in
  let nz = Array.length layers in
  let nx = n_lat and ny = n_lat in
  let n = nx * ny * nz in
  let b = Sparse.builder n n in
  let idx ix iy iz = (iz * nx * ny) + (iy * nx) + ix in
  let couple i j g =
    Sparse.add b i i g;
    Sparse.add b j j g;
    Sparse.add b i j (-.g);
    Sparse.add b j i (-.g)
  in
  let c0 = (n_lat / 2) - 1 in
  for iz = 0 to nz - 1 do
    let dz, rho = layers.(iz) in
    let g_lat = dz /. rho in
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let here = idx ix iy iz in
        if ix + 1 < nx then couple here (idx (ix + 1) iy iz) g_lat;
        if iy + 1 < ny then couple here (idx ix (iy + 1) iz) g_lat;
        if iz + 1 < nz then begin
          let dz', rho' = layers.(iz + 1) in
          let r = ((0.5 *. dz *. rho) +. (0.5 *. dz' *. rho')) /. (dx *. dx) in
          couple here (idx ix iy (iz + 1)) (1.0 /. r)
        end;
        if iz = 0 && ix >= c0 && ix < c0 + 3 && iy >= c0 && iy < c0 + 3 then
          Sparse.add b here here (dx *. dx /. (0.5 *. dz *. rho))
      done
    done
  done;
  (Sparse.finalize b, (nx, ny, nz))

let test_mg_layered_anisotropy () =
  List.iter
    (fun n_lat ->
      let m, dims = layered_substrate n_lat in
      let mg = Mg.build ~dims m in
      let n = Sparse.rows m in
      let rhs = Array.init n (fun i -> sin (0.37 *. float_of_int i)) in
      let r = Cg.solve ~tol:1e-10 ~precond:(Mg.precond mg) m rhs in
      Alcotest.(check bool)
        (Printf.sprintf "%d^2 converged in %d <= 20 iterations" n_lat
           r.Cg.iterations)
        true
        (r.Cg.converged && r.Cg.iterations <= 20))
    [ 16; 48 ]

(* Lanes of one lockstep PCG are their one-column solves, bit for bit,
   on layered grids of random size and hierarchy depth: one lane is all
   zero and the others differ in shape and in scale (1e-6 to 1e3), so
   they finish on different iterations.  The Jacobi default, capped at
   40 iterations, adds lanes that stop unconverged. *)
let prop_lanes_match_columns =
  QCheck.Test.make ~count:30 ~name:"lanes equal one-column solves, bit for bit"
    QCheck.(triple (int_range 4 16) (int_range 1 4) (int_range 0 10000))
    (fun (n_lat, w, seed) ->
      let m, dims = layered_substrate n_lat in
      let n = Sparse.rows m in
      let st = Random.State.make [| seed; n_lat; w |] in
      let coarse_limit = [| 100; 400; 1500 |].(Random.State.int st 3) in
      let mg = Mg.build ~coarse_limit ~dims m in
      let zero = if w > 1 then Random.State.int st w else -1 in
      let column c =
        let scale = 10.0 ** float_of_int (Random.State.int st 10 - 6) in
        if c = zero then Vec.zeros n
        else
          match Random.State.int st 3 with
          | 0 -> Array.init n (fun _ -> scale *. (Random.State.float st 2.0 -. 1.0))
          | 1 ->
            let at = Random.State.int st n in
            Array.init n (fun i -> if i = at then scale else 0.0)
          | _ ->
            let f = Random.State.float st 1.0 in
            Array.init n (fun i -> scale *. sin (f *. float_of_int i))
      in
      let cols = Array.init w column in
      let b = Array.init (w * n) (fun k -> cols.(k mod w).(k / w)) in
      let bits x = Printf.sprintf "%h" x in
      let agree (lane : Cg.result) (one : Cg.result) =
        Array.for_all2 (fun x y -> bits x = bits y) lane.solution one.solution
        && lane.iterations = one.iterations
        && bits lane.residual_norm = bits one.residual_norm
        && lane.converged = one.converged
      in
      let mg_lanes =
        Cg.solve_lanes ~precond:(Mg.precond_lanes mg ~lanes:w) ~lanes:w m b
      in
      let jacobi_lanes = Cg.solve_lanes ~max_iter:40 ~lanes:w m b in
      List.for_all
        (fun c ->
          agree (Cg.lane mg_lanes c)
            (Cg.solve ~precond:(Mg.precond mg) m cols.(c))
          && agree (Cg.lane jacobi_lanes c) (Cg.solve ~max_iter:40 m cols.(c)))
        (List.init w Fun.id))

(* The row-parallel setup is the sequential one, bit for bit: on a
   random layered grid with a few retained nodes (contacts from surface
   cells, retained-retained and duplicated branches), the A_ii / A_ri /
   A_rr blocks built on pools of width 1 to 3 equal the four stamps per
   branch through [Sparse.builder], and every level of a one- or
   multi-level hierarchy built on the pool (P, Galerkin operator,
   coarse envelope factor) equals the sequential build.  Marshal bytes
   carry every float's bits, so equal strings are equal structures. *)
let prop_parallel_setup_bit_identical =
  let module Pool = Sn_engine.Pool in
  QCheck.Test.make ~count:20
    ~name:"row-parallel setup is the sequential build, bit for bit"
    QCheck.(
      quad (int_range 4 24) (int_range 1 4) (int_range 1 3)
        (int_range 0 10000))
    (fun (n_lat, nz, width, seed) ->
      let st = Random.State.make [| seed; n_lat; nz; width |] in
      let nx = n_lat and ny = n_lat + Random.State.int st 5 in
      let n = nx * ny * nz and r = 1 + Random.State.int st 6 in
      let branches = ref [] in
      let branch i j =
        branches := (i, j, Random.State.float st 2.0) :: !branches
      in
      let idx ix iy iz = (iz * nx * ny) + (iy * nx) + ix in
      (* one contact at least: A_ii is then positive definite *)
      branch 0 n;
      for iz = 0 to nz - 1 do
        for iy = 0 to ny - 1 do
          for ix = 0 to nx - 1 do
            if ix + 1 < nx then branch (idx ix iy iz) (idx (ix + 1) iy iz);
            if iy + 1 < ny then branch (idx ix (iy + 1) iz) (idx ix iy iz);
            if iz + 1 < nz then branch (idx ix iy iz) (idx ix iy (iz + 1));
            if iz = 0 && Random.State.int st 4 = 0 then
              branch (n + Random.State.int st r) (idx ix iy 0)
          done
        done
      done;
      for _ = 1 to 3 do
        branch (n + Random.State.int st r) (n + Random.State.int st r);
        let i, j, _ =
          List.nth !branches (Random.State.int st (List.length !branches))
        in
        branch i j
      done;
      let all = Array.of_list (List.rev !branches) in
      let len = Array.length all in
      let bi = Array.map (fun (i, _, _) -> i) all
      and bj = Array.map (fun (_, j, _) -> j) all
      and bg = Array.map (fun (_, _, g) -> g) all in
      let reference =
        let aii = Sparse.builder n n and ari = Sparse.builder r n in
        let arr = Array.make (r * r) 0.0 in
        let stamp i j g =
          match (i < n, j < n) with
          | true, true -> Sparse.add aii i j g
          | false, true -> Sparse.add ari (i - n) j g
          | true, false -> ()
          | false, false ->
            arr.(((i - n) * r) + j - n) <- arr.(((i - n) * r) + j - n) +. g
        in
        for k = 0 to len - 1 do
          let u = bi.(k) and v = bj.(k) and g = bg.(k) in
          stamp u u g;
          stamp v v g;
          stamp u v (-.g);
          stamp v u (-.g)
        done;
        Marshal.to_string (Sparse.finalize aii, Sparse.finalize ari, arr) []
      in
      let pool = Pool.create ~jobs:width () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let par = { Sparse.width; run = (fun n f -> Pool.run pool ~n f) } in
      let ((aii, _, _) as blocks) =
        Sparse.laplacian_blocks ~par ~interior:n ~retained:r ~len bi bj bg
      in
      let dims = (nx, ny, nz) in
      let coarse_limit = if seed mod 2 = 0 then 60 else n in
      String.equal reference (Marshal.to_string blocks [])
      && String.equal
           (Marshal.to_string (Mg.build ~coarse_limit ~dims aii) [])
           (Marshal.to_string (Mg.build ~coarse_limit ~par ~dims aii) []))

(* Each solve owns its V-cycle workspace: solving on four domains, each
   task with its own [Mg.precond], gives the sequential bytes. *)
let test_mg_workspace_isolation () =
  let module Pool = Sn_engine.Pool in
  let m, dims = layered_substrate 16 in
  let mg = Mg.build ~dims m in
  let n = Sparse.rows m in
  let rhs =
    Array.init 8 (fun k ->
        let w = 0.1 +. (0.07 *. float_of_int k) in
        Array.init n (fun i -> sin (w *. float_of_int i)))
  in
  let solve b =
    let r = Cg.solve ~tol:1e-10 ~precond:(Mg.precond mg) m b in
    (r.Cg.solution, r.Cg.iterations)
  in
  let sequential = Array.map solve rhs in
  let pool = Pool.create ~jobs:4 () in
  let parallel =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    Pool.map_array pool solve rhs
  in
  Array.iteri
    (fun k (x, it) ->
      let x', it' = parallel.(k) in
      Alcotest.(check int) (Printf.sprintf "rhs %d iterations" k) it it';
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      Alcotest.(check bool) (Printf.sprintf "rhs %d bytes" k) true
        (Array.for_all2 same x x'))
    sequential

(* PCG updates its vectors in place and the V-cycle reuses one
   workspace: a whole solve, workspace included, allocates a small
   multiple of n words, not a few vectors per iteration. *)
let test_mg_pcg_allocation () =
  let m, dims = layered_substrate 48 in
  let mg = Mg.build ~dims m in
  let n = Sparse.rows m in
  let rhs = Array.init n (fun i -> sin (0.37 *. float_of_int i)) in
  (* a major cycle first: it hands this domain the allocation counts
     that exited pool domains left behind, outside the measured span *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let r = Cg.solve ~tol:1e-10 ~precond:(Mg.precond mg) m rhs in
  let bytes = Gc.allocated_bytes () -. before in
  let words = bytes /. float_of_int (Sys.word_size / 8) in
  Alcotest.(check bool) "converged" true r.Cg.converged;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words in %d iterations <= 32 n = %d" words
       r.Cg.iterations (32 * n))
    true
    (words <= float_of_int (32 * n))

let test_cg_zero_diagonal () =
  let b = Sparse.builder 3 3 in
  Sparse.add b 0 0 2.0;
  Sparse.add b 2 2 1.0;
  (* row 1 left without a diagonal entry *)
  Sparse.add b 0 2 (-0.5);
  Sparse.add b 2 0 (-0.5);
  let m = Sparse.finalize b in
  Alcotest.check_raises "zero diagonal refused" (Cg.Zero_diagonal 1)
    (fun () -> ignore (Cg.solve m [| 1.0; 1.0; 1.0 |]));
  Alcotest.check_raises "no lanes" (Invalid_argument "Cg.solve: lanes must be 1..4")
    (fun () -> ignore (Cg.solve_lanes ~lanes:0 m [||]))

(* ------------------------------------------------------------------ *)
(* Splu: sparse LU with reusable symbolic factorization *)

(* random diagonally dominant unsymmetric sparse system: a ring of
   couplings plus scattered off-diagonal entries *)
let random_dd_system st n =
  let b = Sparse.builder n n in
  let offdiag = Array.make n 0.0 in
  let couple i j v =
    if i <> j then begin
      Sparse.add b i j v;
      offdiag.(i) <- offdiag.(i) +. Float.abs v
    end
  in
  for i = 0 to n - 1 do
    couple i ((i + 1) mod n) (Random.State.float st 2.0 -. 1.0);
    couple i ((i + n - 1) mod n) (Random.State.float st 2.0 -. 1.0);
    (* a few random long-range entries make the pattern unsymmetric *)
    if Random.State.float st 1.0 < 0.5 then
      couple i (Random.State.int st n) (Random.State.float st 2.0 -. 1.0)
  done;
  for i = 0 to n - 1 do
    Sparse.add b i i (offdiag.(i) +. 1.0 +. Random.State.float st 1.0)
  done;
  Sparse.finalize b

let prop_splu_matches_dense =
  QCheck.Test.make ~count:60
    ~name:"sparse LU matches dense LU on random diagonally dominant systems"
    QCheck.(pair (int_range 2 80) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n |] in
      let m = random_dd_system st n in
      let rhs = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let f = Splu.factor m in
      let x_sparse = Splu.solve f rhs in
      let x_dense = Lu.solve_mat (Sparse.to_dense m) rhs in
      if Vec.max_abs_diff x_sparse x_dense >= 1e-9 then false
      else begin
        (* numeric refill with the same pattern: scale all values in
           place, refactor without symbolic work, compare again *)
        let v = Sparse.values m in
        for k = 0 to Array.length v - 1 do
          v.(k) <- v.(k) *. (1.5 +. (0.25 *. sin (float_of_int k)))
        done;
        Splu.refactor f m;
        let x_sparse' = Splu.solve f rhs in
        let x_dense' = Lu.solve_mat (Sparse.to_dense m) rhs in
        Vec.max_abs_diff x_sparse' x_dense' < 1e-9
      end)

let test_splu_small_system () =
  let st = Random.State.make [| 42 |] in
  let n = 12 in
  let m = random_dd_system st n in
  let rhs = Array.init n (fun i -> cos (float_of_int i)) in
  let f = Splu.factor m in
  let x = Splu.solve f rhs in
  let x_ref = Lu.solve_mat (Sparse.to_dense m) rhs in
  Alcotest.(check bool) "solve matches Lu.solve_mat" true
    (Vec.max_abs_diff x x_ref < 1e-9)

let test_splu_singular () =
  let b = Sparse.builder 3 3 in
  Sparse.add b 0 0 1.0;
  Sparse.add b 1 1 1.0;
  (* row/column 2 is empty: structurally singular *)
  let m = Sparse.finalize b in
  Alcotest.(check bool) "raises Singular" true
    (match Splu.factor m with
     | _ -> false
     | exception Splu.Singular _ -> true)

let test_splu_counters () =
  Splu.reset_stats ();
  let st = Random.State.make [| 7 |] in
  let m = random_dd_system st 30 in
  let rhs = Array.make 30 1.0 in
  let f = Splu.factor m in
  ignore (Splu.solve f rhs);
  Splu.refactor f m;
  ignore (Splu.solve f rhs);
  Alcotest.(check int) "factorizations" 1 (Splu.factorizations ());
  Alcotest.(check int) "refactorizations" 1 (Splu.refactorizations ());
  Alcotest.(check int) "solves" 2 (Splu.solves ())

(* complex kernel: split re/im Gilbert-Peierls with transpose solve *)

(* reuse the real pattern generator; boost the diagonal so the complex
   off-diagonal magnitudes cannot overwhelm it *)
let random_cdd_system st n =
  let p = random_dd_system st n in
  let m = Splu.Cplx.mat_of_pattern p in
  let v = Sparse.values p in
  let rp = Sparse.row_ptr p and ci = Sparse.col_idx p in
  for i = 0 to n - 1 do
    for k = rp.(i) to rp.(i + 1) - 1 do
      if ci.(k) = i then begin
        m.Splu.Cplx.re.(k) <- 3.0 *. v.(k);
        m.Splu.Cplx.im.(k) <- 0.5 *. v.(k)
      end
      else begin
        m.Splu.Cplx.re.(k) <- v.(k);
        m.Splu.Cplx.im.(k) <- Random.State.float st 2.0 -. 1.0
      end
    done
  done;
  m

(* the dense array-of-rows copy of a complex sparse matrix *)
let cmat_to_dense (m : Splu.Cplx.mat) =
  let p = m.Splu.Cplx.pattern in
  let d = Array.make_matrix (Sparse.rows p) (Sparse.cols p) Complex.zero in
  let rp = Sparse.row_ptr p and ci = Sparse.col_idx p in
  for i = 0 to Sparse.rows p - 1 do
    for k = rp.(i) to rp.(i + 1) - 1 do
      d.(i).(ci.(k)) <- { Complex.re = m.Splu.Cplx.re.(k); im = m.Splu.Cplx.im.(k) }
    done
  done;
  d

let cmax_diff a b =
  let d = ref 0.0 in
  Array.iteri
    (fun i ai -> d := Float.max !d (Complex.norm (Complex.sub ai b.(i))))
    a;
  !d

let dense_transpose d =
  let n = Array.length d in
  Array.init n (fun i -> Array.init n (fun j -> d.(j).(i)))

let random_crhs st n =
  Array.init n (fun _ ->
      { Complex.re = Random.State.float st 2.0 -. 1.0;
        im = Random.State.float st 2.0 -. 1.0 })

let prop_csplu_matches_dense =
  QCheck.Test.make ~count:40
    ~name:"complex sparse LU matches dense (forward and transpose solves)"
    QCheck.(pair (int_range 2 60) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n; 77 |] in
      let m = random_cdd_system st n in
      let rhs = random_crhs st n in
      let f = Splu.Cplx.factor m in
      let d = cmat_to_dense m in
      if cmax_diff (Splu.Cplx.solve f rhs) (dense_csolve d rhs) >= 1e-9
      then false
      else if
        cmax_diff
          (Splu.Cplx.solve_transpose f rhs)
          (dense_csolve (dense_transpose d) rhs)
        >= 1e-9
      then false
      else begin
        (* numeric refill on the fixed pattern *)
        for k = 0 to Array.length m.Splu.Cplx.re - 1 do
          m.Splu.Cplx.re.(k) <- m.Splu.Cplx.re.(k) *. 1.25;
          m.Splu.Cplx.im.(k) <- m.Splu.Cplx.im.(k) *. 0.75
        done;
        Splu.Cplx.refactor f m;
        let d' = cmat_to_dense m in
        if
          cmax_diff (Splu.Cplx.solve f rhs) (dense_csolve d' rhs)
          >= 1e-9
        then false
        else begin
          (* a clone refactored at the same values reproduces the
             original factor bit for bit *)
          let c = Splu.Cplx.clone f in
          Splu.Cplx.refactor c m;
          Splu.Cplx.solve c rhs = Splu.Cplx.solve f rhs
          && Splu.Cplx.solve_transpose c rhs = Splu.Cplx.solve_transpose f rhs
        end
      end)

let test_csplu_small_system () =
  let st = Random.State.make [| 11 |] in
  let n = 12 in
  let m = random_cdd_system st n in
  let rhs = random_crhs st n in
  let f = Splu.Cplx.factor m in
  let d = cmat_to_dense m in
  Alcotest.(check bool) "forward matches" true
    (cmax_diff (Splu.Cplx.solve f rhs) (dense_csolve d rhs) < 1e-9);
  Alcotest.(check bool) "transpose matches" true
    (cmax_diff
       (Splu.Cplx.solve_transpose f rhs)
       (dense_csolve (dense_transpose d) rhs)
     < 1e-9)

(* Bit-exactness pins for both Gilbert-Peierls kernels: the digest of
   every solution component printed with %h, after a fresh factor and
   after a scaled same-pattern refactor.  The dense-LU comparisons above
   only hold to 1e-9, so a change in pivot order or rounding shows up
   here alone.  A deliberate numeric change updates both digests. *)
let digest_hex floats =
  Digest.to_hex
    (Digest.string
       (String.concat " " (List.map (Printf.sprintf "%h") floats)))

let cfloats xs =
  List.concat_map (fun c -> [ c.Complex.re; c.Complex.im ]) (Array.to_list xs)

let test_splu_bit_exact () =
  let st = Random.State.make [| 2005; 120 |] in
  let n = 120 in
  let m = random_dd_system st n in
  let rhs = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let f = Splu.factor m in
  let x1 = Splu.solve f rhs in
  let v = Sparse.values m in
  for k = 0 to Array.length v - 1 do
    v.(k) <- v.(k) *. (1.5 +. (0.25 *. sin (float_of_int k)))
  done;
  Splu.refactor f m;
  let x2 = Splu.solve f rhs in
  Alcotest.(check string) "real solve digest"
    "aa8e78d3e1b1eb9ed72518dec6ccf38d"
    (digest_hex (Array.to_list x1 @ Array.to_list x2))

let test_csplu_bit_exact () =
  let st = Random.State.make [| 2005; 100 |] in
  let n = 100 in
  let m = random_cdd_system st n in
  let rhs = random_crhs st n in
  let f = Splu.Cplx.factor m in
  let x1 = Splu.Cplx.solve f rhs and y1 = Splu.Cplx.solve_transpose f rhs in
  for k = 0 to Array.length m.Splu.Cplx.re - 1 do
    m.Splu.Cplx.re.(k) <- m.Splu.Cplx.re.(k) *. 1.25;
    m.Splu.Cplx.im.(k) <- m.Splu.Cplx.im.(k) *. 0.75
  done;
  Splu.Cplx.refactor f m;
  let x2 = Splu.Cplx.solve f rhs and y2 = Splu.Cplx.solve_transpose f rhs in
  Alcotest.(check string) "complex solve digest"
    "4dcff7c076384a7b17c3f751534fe87f"
    (digest_hex (List.concat_map cfloats [ x1; y1; x2; y2 ]))

(* A factor refilled from a matrix of the wrong size must refuse it and
   keep solving the system it was built from. *)
let raises_dimension_mismatch f =
  match f () with
  | () -> false
  | exception Invalid_argument msg ->
    String.ends_with ~suffix:"dimension mismatch" msg

let test_refactor_shape () =
  let st = Random.State.make [| 12 |] in
  let m = random_dd_system st 12 and small = random_dd_system st 10 in
  let rhs = Array.init 12 (fun i -> sin (float_of_int i)) in
  let f = Splu.factor m in
  Alcotest.(check bool) "real refactor refuses 10x10" true
    (raises_dimension_mismatch (fun () -> Splu.refactor f small));
  Alcotest.(check bool) "real factor intact" true
    (Vec.max_abs_diff (Splu.solve f rhs)
       (Lu.solve_mat (Sparse.to_dense m) rhs)
     < 1e-9);
  let cm = random_cdd_system st 12 and csmall = random_cdd_system st 10 in
  let crhs = random_crhs st 12 in
  let cf = Splu.Cplx.factor cm in
  Alcotest.(check bool) "complex refactor refuses 10x10" true
    (raises_dimension_mismatch (fun () -> Splu.Cplx.refactor cf csmall));
  Alcotest.(check bool) "complex factor intact" true
    (cmax_diff (Splu.Cplx.solve cf crhs)
       (dense_csolve (cmat_to_dense cm) crhs)
     < 1e-9)

let test_csplu_singular () =
  let b = Sparse.builder 3 3 in
  Sparse.add b 0 0 1.0;
  Sparse.add b 1 1 1.0;
  (* row/column 2 is empty: structurally singular *)
  let p = Sparse.finalize b in
  let m = Splu.Cplx.mat_of_pattern p in
  m.Splu.Cplx.re.(0) <- 1.0;
  m.Splu.Cplx.re.(1) <- 1.0;
  Alcotest.(check bool) "raises Singular" true
    (match Splu.Cplx.factor m with
     | _ -> false
     | exception Splu.Singular _ -> true)

(* ------------------------------------------------------------------ *)
(* FFT / Goertzel *)

(* [(f_peak, a_peak)]: the largest-amplitude bin within [f +- span] *)
let peak_near (s : Fft.spectrum) ~f ~span =
  let best = ref None in
  Array.iteri
    (fun k fk ->
      if Float.abs (fk -. f) <= span then
        match !best with
        | Some (_, a) when a >= s.Fft.amplitudes.(k) -> ()
        | _ -> best := Some (fk, s.Fft.amplitudes.(k)))
    s.Fft.frequencies;
  match !best with Some r -> r | None -> raise Not_found

(* Oracles: the two-pass definitions the one-pass kernels replace. *)

let hann_oracle n =
  if n <= 1 then Array.make (max n 0) 1.0
  else
    Array.init n (fun i ->
        0.5 *. (1.0 -. cos (2.0 *. Units.pi *. float_of_int i /. float_of_int (n - 1))))

(* Hann array, windowed copy, then a per-sample cos/sin correlation *)
let goertzel_windowed_oracle ~fs ~f samples =
  let n = Array.length samples in
  let w = hann_oracle n in
  let gain = Array.fold_left ( +. ) 0.0 w /. float_of_int n in
  let dw = Units.two_pi *. f /. fs in
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to n - 1 do
    let x = samples.(i) *. w.(i) and ph = dw *. float_of_int i in
    re := !re +. (x *. cos ph);
    im := !im -. (x *. sin ph)
  done;
  let scale = if f = 0.0 || f = fs /. 2.0 then 1.0 else 2.0 in
  let k = scale /. float_of_int n in
  Complex.norm { Complex.re = !re *. k; im = !im *. k } /. gain

(* O(n^2) DFT of a real input: |X_k| for k = 0 .. n/2 *)
let naive_dft_magnitudes x =
  let n = Array.length x in
  Array.init ((n / 2) + 1) (fun k ->
      let re = ref 0.0 and im = ref 0.0 in
      for i = 0 to n - 1 do
        let ph = 2.0 *. Units.pi *. float_of_int ((k * i) mod n) /. float_of_int n in
        re := !re +. (x.(i) *. cos ph);
        im := !im -. (x.(i) *. sin ph)
      done;
      Float.hypot !re !im)

let max_abs a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 a

let test_fft_impulse () =
  let x = Array.init 8 (fun i -> if i = 0 then Complex.one else Complex.zero) in
  let y = Fft.fft x in
  Array.iter
    (fun c ->
      check_close 1e-12 "flat spectrum re" 1.0 c.Complex.re;
      check_close 1e-12 "flat spectrum im" 0.0 c.Complex.im)
    y

let test_fft_roundtrip () =
  let n = 64 in
  let x =
    Array.init n (fun i ->
        { Complex.re = sin (0.3 *. float_of_int i); im = cos (0.7 *. float_of_int i) })
  in
  let y = Fft.ifft (Fft.fft x) in
  let max_err = ref 0.0 in
  Array.iteri
    (fun i c ->
      max_err := Float.max !max_err (Complex.norm (Complex.sub c x.(i))))
    y;
  Alcotest.(check bool) "ifft . fft = id" true (!max_err < 1e-10)

let test_fft_bad_length () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Fft: length must be a power of two") (fun () ->
      ignore (Fft.fft (Array.make 12 Complex.zero)))

let test_amplitude_spectrum_tone () =
  let fs = 1024.0 and f = 128.0 and a = 0.5 in
  let samples =
    Array.init 1024 (fun i ->
        a *. cos (Units.two_pi *. f *. float_of_int i /. fs))
  in
  let s = Fft.amplitude_spectrum ~window:`Rect ~fs samples in
  let fpk, apk = peak_near s ~f ~span:2.0 in
  check_close 1e-9 "peak frequency" f fpk;
  check_close 1e-6 "peak amplitude" a apk

let test_amplitude_spectrum_hann () =
  let fs = 1000.0 and f = 100.0 and a = 2.0 in
  let samples =
    Array.init 2000 (fun i ->
        a *. cos (Units.two_pi *. f *. float_of_int i /. fs))
  in
  let s = Fft.amplitude_spectrum ~fs samples in
  let _, apk = peak_near s ~f ~span:3.0 in
  Alcotest.(check bool) "hann-windowed tone within 5%" true
    (Float.abs (apk -. a) /. a < 0.05)

let test_goertzel_tone () =
  let fs = 1.0e6 and f = 12_345.0 and a = 0.25 in
  let n = 10_000 in
  let samples =
    Array.init n (fun i ->
        a *. cos ((Units.two_pi *. f *. float_of_int i /. fs) +. 0.3))
  in
  check_close 1e-3 "goertzel amplitude" a (Goertzel.amplitude ~fs ~f samples)

let test_goertzel_dc () =
  let samples = Array.make 100 3.0 in
  check_close 1e-9 "dc amplitude" 3.0 (Goertzel.amplitude ~fs:1.0 ~f:0.0 samples)

let test_goertzel_rejects_other_tone () =
  let fs = 1.0e6 in
  let n = 100_000 in
  let samples =
    Array.init n (fun i ->
        cos (Units.two_pi *. 100_000.0 *. float_of_int i /. fs))
  in
  let leak = Goertzel.amplitude_windowed ~fs ~f:150_000.0 samples in
  Alcotest.(check bool) "leakage below -60 dB" true (leak < 1e-3)

let prop_goertzel_matches_fft =
  QCheck.Test.make ~count:30 ~name:"Goertzel matches FFT on bin centers"
    QCheck.(int_range 1 120)
    (fun k ->
      let n = 256 and fs = 256.0 in
      let f = float_of_int k in
      let samples =
        Array.init n (fun i ->
            (0.7 *. cos (Units.two_pi *. f *. float_of_int i /. fs))
            +. (0.1 *. cos (Units.two_pi *. 3.0 *. float_of_int i /. fs)))
      in
      let g = Goertzel.amplitude ~fs ~f samples in
      let s = Fft.amplitude_spectrum ~window:`Rect ~fs samples in
      let _, apk = peak_near s ~f ~span:0.4 in
      Float.abs (g -. apk) < 1e-6)

(* [n] samples at fs = 1 of a tone at [f1] (random when not given),
   a weaker one elsewhere and noise *)
let random_record ?f1 st n =
  let f1 = match f1 with Some f -> f | None -> Random.State.float st 0.5 in
  let a1 = Random.State.float st 2.0 and p1 = Random.State.float st 6.0 in
  let a2 = Random.State.float st 0.1 and f2 = Random.State.float st 0.5 in
  Array.init n (fun i ->
      let t = float_of_int i in
      (a1 *. cos ((Units.two_pi *. f1 *. t) +. p1))
      +. (a2 *. sin (Units.two_pi *. f2 *. t))
      +. Random.State.float st 0.02 -. 0.01)

let prop_goertzel_windowed_oracle =
  QCheck.Test.make ~count:60
    ~name:"windowed Goertzel matches Hann array + correlation"
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 3))
    (fun (seed, shape) ->
      let st = Random.State.make [| seed |] in
      (* short, odd and long records; f at DC, Nyquist or in between *)
      let n =
        match shape with
        | 0 -> 1 + Random.State.int st 4
        | 1 -> (2 * Random.State.int st 600) + 1
        | _ -> 1 + Random.State.int st 70_000
      in
      let fs = 1.0 in
      let f =
        match Random.State.int st 4 with
        | 0 -> 0.0
        | 1 -> fs /. 2.0
        | _ -> Random.State.float st (fs /. 2.0)
      in
      (* mostly a tone on the measured bin, as a spur reading has it *)
      let on_bin = Random.State.int st 4 > 0 in
      let x = random_record ?f1:(if on_bin then Some f else None) st n in
      match Goertzel.amplitude_windowed ~fs ~f x with
      | exception Invalid_argument _ when n = 2 ->
        (* both Hann weights are 0: refused, as an empty input is *)
        true
      | got when n = 2 ->
        QCheck.Test.fail_reportf "n=2 f=%g: %g, no Invalid_argument" f got
      | got ->
        let want = goertzel_windowed_oracle ~fs ~f x in
        Float.abs (got -. want) <= 1e-12 *. max_abs x
        || QCheck.Test.fail_reportf "n=%d f=%g: %.17g vs %.17g" n f got want)

let prop_spectrum_matches_naive_dft =
  QCheck.Test.make ~count:40 ~name:"amplitude spectrum matches an O(n^2) DFT"
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 9) bool)
    (fun (seed, log2n, hann) ->
      let st = Random.State.make [| seed |] in
      let n = 1 lsl log2n in
      let x = random_record st n in
      let window = if hann then `Hann else `Rect in
      match (Fft.amplitude_spectrum ~window ~fs:1.0 x).Fft.amplitudes with
      | exception Invalid_argument _ when hann && n = 2 ->
        (* both Hann weights are 0: refused, as an empty input is *)
        true
      | _ when hann && n = 2 ->
        QCheck.Test.fail_report "n=2 under Hann: no Invalid_argument"
      | got ->
        let w = if hann then hann_oracle n else Array.make n 1.0 in
        let wsum = Array.fold_left ( +. ) 0.0 w in
        let want =
          Array.mapi
            (fun k m ->
              let side = if k = 0 || k = n / 2 then 1.0 else 2.0 in
              side *. m /. wsum)
            (naive_dft_magnitudes (Array.mapi (fun i xi -> xi *. w.(i)) x))
        in
        let err = max_abs (Array.mapi (fun k w -> got.(k) -. w) want) in
        let tol = 1e-12 *. max_abs want in
        err <= tol || QCheck.Test.fail_reportf "n=%d: max err %g > %g" n err tol)

(* ------------------------------------------------------------------ *)
(* Sweep / Stats *)

let test_linspace () =
  Alcotest.(check (array (float 1e-12)))
    "5 points" [| 0.0; 0.25; 0.5; 0.75; 1.0 |] (Sweep.linspace 0.0 1.0 5)

let test_logspace () =
  let s = Sweep.logspace 1.0 1000.0 4 in
  Alcotest.(check (array (float 1e-9))) "decade points"
    [| 1.0; 10.0; 100.0; 1000.0 |] s

let test_interp1 () =
  let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 0.0; 10.0; 0.0 |] in
  check_float "midpoint" 5.0 (Sweep.interp1 xs ys 0.5);
  check_float "clamp low" 0.0 (Sweep.interp1 xs ys (-1.0));
  check_float "clamp high" 0.0 (Sweep.interp1 xs ys 5.0);
  check_float "on sample" 10.0 (Sweep.interp1 xs ys 1.0)

let test_stats_basic () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean a);
  check_float "std" (sqrt 1.25) (Stats.std a);
  check_float "max_abs" 4.0 (Stats.max_abs a)

let test_linear_fit () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 1.0; 3.0; 5.0; 7.0 |] in
  (* the fit runs against log10 f, so x = 0..3 is f = 1..1000 *)
  let freqs = Array.map (fun x -> 10.0 ** x) xs in
  check_close 1e-12 "slope" 2.0 (Stats.slope_db_per_decade freqs ys)

let test_slope_db_per_decade () =
  (* amplitude ~ 1/f gives -20 dB/dec *)
  let freqs = Sweep.logspace 1.0e5 1.0e7 21 in
  let dbs = Array.map (fun f -> Units.db_of_ratio (1.0 /. f)) freqs in
  check_close 1e-6 "1/f slope" (-20.0) (Stats.slope_db_per_decade freqs dbs)

(* ------------------------------------------------------------------ *)
(* Zero crossing *)

module Zc = Sn_numerics.Zero_crossing

let test_zc_frequency () =
  let fs = 1.0e6 and f = 12_347.0 in
  let samples =
    Array.init 40_000 (fun i ->
        sin ((Units.two_pi *. f *. float_of_int i /. fs) +. 0.7))
  in
  let est = Zc.estimate_frequency ~fs samples in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.2f vs %.2f" est f)
    true
    (Float.abs (est -. f) /. f < 1e-4)

let test_zc_jitter_pure_tone () =
  let fs = 1.0e6 and f = 10_000.0 in
  let samples =
    Array.init 50_000 (fun i -> sin (Units.two_pi *. f *. float_of_int i /. fs))
  in
  let jitter = Zc.period_jitter ~fs samples in
  Alcotest.(check bool) "tiny jitter" true (jitter *. f < 1e-3)

let test_zc_too_short () =
  Alcotest.(check bool) "short record rejected" true
    (match Zc.estimate_frequency ~fs:1.0 [| 1.0; 2.0 |] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let prop_zc_tracks_frequency =
  QCheck.Test.make ~count:50 ~name:"zero crossing tracks tone frequency"
    QCheck.(float_range 1000.0 40000.0)
    (fun f ->
      let fs = 1.0e6 in
      let samples =
        Array.init 30_000 (fun i ->
            cos (Units.two_pi *. f *. float_of_int i /. fs))
      in
      let est = Zc.estimate_frequency ~fs samples in
      Float.abs (est -. f) /. f < 1e-3)

let prop_fft_parseval =
  QCheck.Test.make ~count:30 ~name:"FFT satisfies Parseval"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 128 in
      let x =
        Array.init n (fun _ ->
            { Complex.re = Random.State.float st 2.0 -. 1.0;
              im = Random.State.float st 2.0 -. 1.0 })
      in
      let y = Fft.fft x in
      let energy a =
        Array.fold_left (fun acc c -> acc +. Complex.norm2 c) 0.0 a
      in
      Float.abs (energy y -. (float_of_int n *. energy x))
      < 1e-6 *. float_of_int n *. energy x)

(* ------------------------------------------------------------------ *)
(* cooperative cancellation tokens *)

module Cancel = Sn_numerics.Cancel

let test_cancel_expiry () =
  let t = Cancel.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  Alcotest.(check bool) "expired" true (Cancel.expired t);
  (match Cancel.check t with
  | () -> Alcotest.fail "expired token passed check"
  | exception Cancel.Cancelled t' ->
    Alcotest.(check string) "reason" "deadline" (Cancel.reason t'));
  (* expiry latches the flag *)
  Alcotest.(check bool) "latched" true (Cancel.cancelled t);
  (* a far-future deadline neither expires nor cancels *)
  let live = Cancel.create ~deadline:(Unix.gettimeofday () +. 3600.0) () in
  Alcotest.(check bool) "live" false (Cancel.expired live);
  Cancel.check live

let test_cancel_ambient () =
  Alcotest.(check bool) "disarmed" false (Cancel.active ());
  (* polls are no-ops with no token installed *)
  Cancel.poll ();
  Cancel.tick ();
  let t = Cancel.create () in
  Cancel.with_token t (fun () ->
      Alcotest.(check bool) "armed" true (Cancel.active ());
      Cancel.tick ();
      Cancel.tick ());
  Alcotest.(check int) "progress counted" 2 (Cancel.progress t);
  Alcotest.(check bool) "restored" false (Cancel.active ());
  (* an explicitly cancelled token unwinds at the next tick, and the
     ambient slot is restored even on the exceptional path *)
  let t2 = Cancel.create () in
  Cancel.cancel ~reason:"disconnect" t2;
  (match Cancel.with_token t2 (fun () -> Cancel.tick ()) with
  | () -> Alcotest.fail "cancelled token ticked"
  | exception Cancel.Cancelled t' ->
    Alcotest.(check string) "reason kept" "disconnect" (Cancel.reason t'));
  Alcotest.(check bool) "restored after raise" false (Cancel.active ())

let test_cancel_stops_cg () =
  (* a CG solve under an expired ambient token unwinds within one
     iteration instead of running to convergence *)
  let n = 64 in
  let m = laplacian_1d n in
  let b = Vec.init n (fun i -> Float.sin (float_of_int i)) in
  let tok = Cancel.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  match Cancel.with_token tok (fun () -> cg_solve ~tol:1e-12 m b) with
  | _ -> Alcotest.fail "expired token did not stop CG"
  | exception Cancel.Cancelled _ -> ()

(* ------------------------------------------------------------------ *)
(* the bounded LRU behind every resident cache *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* touching "a" makes "b" the eviction victim *)
  Alcotest.(check (option int)) "hit touches" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "LRU evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "touched kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "newest kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "bounded" 2 (Lru.length c);
  Alcotest.(check int) "eviction counted" 1 (Lru.evictions c)

let test_lru_replace_and_trim () =
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* replacing a resident key refreshes its recency without evicting *)
  Lru.add c "a" 10;
  Alcotest.(check int) "replace keeps size" 3 (Lru.length c);
  Alcotest.(check (option int)) "replaced value" (Some 10) (Lru.find c "a");
  (* shedding: trim to one entry keeps the most recently used *)
  Alcotest.(check int) "trim drops" 2 (Lru.trim c ~max_entries:1);
  Alcotest.(check int) "trimmed" 1 (Lru.length c);
  Alcotest.(check (option int)) "MRU survives trim" (Some 10) (Lru.find c "a");
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  match Lru.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

let test_lru_fold () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check int) "fold sees every binding" 3
    (Lru.fold (fun _ v acc -> acc + v) c 0);
  (* folding touched nothing: "a" is still the eviction victim *)
  Lru.add c "c" 3;
  Alcotest.(check (list string)) "fold leaves recency" [ "b"; "c" ]
    (List.sort String.compare (Lru.fold (fun k _ acc -> k :: acc) c []))

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "numerics.units",
      [
        Alcotest.test_case "db round trip" `Quick test_db_roundtrip;
        Alcotest.test_case "dbm of vpeak" `Quick test_dbm_of_vpeak;
        Alcotest.test_case "-5 dBm tone" `Quick test_minus5dbm;
        Alcotest.test_case "invalid db" `Quick test_db_invalid;
        Alcotest.test_case "engineering format" `Quick test_eng_format;
      ] );
    ( "numerics.linalg",
      [
        Alcotest.test_case "vector ops" `Quick test_vec_ops;
        Alcotest.test_case "vector mismatch" `Quick test_vec_mismatch;
        Alcotest.test_case "matrix multiply" `Quick test_mat_mul;
        Alcotest.test_case "identity laws" `Quick test_mat_identity;
        Alcotest.test_case "symmetry check" `Quick test_mat_symmetry;
        Alcotest.test_case "LU known system" `Quick test_lu_solve_known;
        Alcotest.test_case "LU singular" `Quick test_lu_singular;
        Alcotest.test_case "LU pivoting" `Quick test_lu_pivoting;
        Alcotest.test_case "complex LU" `Quick test_lu_complex;
        Alcotest.test_case "refactor checks shape" `Quick test_refactor_shape;
        qcheck prop_lu_random_solve;
        qcheck prop_chol_matches_lu;
        Alcotest.test_case "Cholesky refuses non-positive pivots" `Quick
          test_chol_singular;
      ] );
    ( "numerics.sparse",
      [
        Alcotest.test_case "triplet build" `Quick test_sparse_build;
        Alcotest.test_case "cancellation drops zeros" `Quick test_sparse_cancel;
        qcheck prop_finalize_matches_reference;
        Alcotest.test_case "finalize edge shapes" `Quick test_finalize_edges;
        Alcotest.test_case "of_csr validates" `Quick test_sparse_of_csr;
        Alcotest.test_case "mat-vec" `Quick test_sparse_mul_vec;
        Alcotest.test_case "symmetry" `Quick test_sparse_symmetric;
        Alcotest.test_case "CG matches LU" `Quick test_cg_vs_lu;
        Alcotest.test_case "CG zero rhs" `Quick test_cg_zero_rhs;
        Alcotest.test_case "CG non-convergence" `Quick test_cg_not_converged;
        Alcotest.test_case "CG zero diagonal" `Quick test_cg_zero_diagonal;
        qcheck prop_cg_solves_spd;
      ] );
    ( "numerics.mg",
      [
        Alcotest.test_case "MG-CG matches LU" `Quick test_mg_cg_vs_lu;
        Alcotest.test_case "V-cycle symmetric" `Quick test_mg_symmetric;
        Alcotest.test_case "iterations near-constant" `Quick
          test_mg_iterations_flat;
        Alcotest.test_case "layered anisotropy" `Quick
          test_mg_layered_anisotropy;
        Alcotest.test_case "workspace isolation" `Quick
          test_mg_workspace_isolation;
        Alcotest.test_case "allocation-free PCG" `Quick test_mg_pcg_allocation;
        Alcotest.test_case "coarse solve exact" `Quick test_mg_coarse_exact;
        Alcotest.test_case "PCG skips its unused last V-cycle" `Quick
          test_mg_precond_count;
        qcheck prop_lanes_match_columns;
        qcheck prop_parallel_setup_bit_identical;
      ] );
    ( "numerics.splu",
      [
        qcheck prop_splu_matches_dense;
        Alcotest.test_case "small system solve" `Quick test_splu_small_system;
        Alcotest.test_case "structurally singular" `Quick test_splu_singular;
        Alcotest.test_case "factorization counters" `Quick test_splu_counters;
        qcheck prop_csplu_matches_dense;
        Alcotest.test_case "complex small system" `Quick
          test_csplu_small_system;
        Alcotest.test_case "complex structurally singular" `Quick
          test_csplu_singular;
        Alcotest.test_case "real kernel bit-exact" `Quick test_splu_bit_exact;
        Alcotest.test_case "complex kernel bit-exact" `Quick
          test_csplu_bit_exact;
      ] );
    ( "numerics.spectral",
      [
        Alcotest.test_case "fft impulse" `Quick test_fft_impulse;
        Alcotest.test_case "fft round trip" `Quick test_fft_roundtrip;
        Alcotest.test_case "fft bad length" `Quick test_fft_bad_length;
        Alcotest.test_case "tone amplitude (rect)" `Quick test_amplitude_spectrum_tone;
        Alcotest.test_case "tone amplitude (hann)" `Quick test_amplitude_spectrum_hann;
        Alcotest.test_case "goertzel tone" `Quick test_goertzel_tone;
        Alcotest.test_case "goertzel dc" `Quick test_goertzel_dc;
        Alcotest.test_case "goertzel leakage" `Quick test_goertzel_rejects_other_tone;
        qcheck prop_goertzel_matches_fft;
        qcheck prop_goertzel_windowed_oracle;
        qcheck prop_spectrum_matches_naive_dft;
      ] );
    ( "numerics.sweep",
      [
        Alcotest.test_case "linspace" `Quick test_linspace;
        Alcotest.test_case "logspace" `Quick test_logspace;
        Alcotest.test_case "interp1" `Quick test_interp1;
        Alcotest.test_case "stats basics" `Quick test_stats_basic;
        Alcotest.test_case "linear fit" `Quick test_linear_fit;
        Alcotest.test_case "dB/decade slope" `Quick test_slope_db_per_decade;
        Alcotest.test_case "zero-crossing frequency" `Quick test_zc_frequency;
        Alcotest.test_case "zero-crossing jitter" `Quick
          test_zc_jitter_pure_tone;
        Alcotest.test_case "zero-crossing short record" `Quick
          test_zc_too_short;
        qcheck prop_zc_tracks_frequency;
        qcheck prop_fft_parseval;
      ] );
    ( "numerics.cancel",
      [
        Alcotest.test_case "deadline expiry" `Quick test_cancel_expiry;
        Alcotest.test_case "ambient token" `Quick test_cancel_ambient;
        Alcotest.test_case "stops a CG solve" `Quick test_cancel_stops_cg;
      ] );
    ( "numerics.lru",
      [
        Alcotest.test_case "eviction order" `Quick test_lru_eviction;
        Alcotest.test_case "replace and trim" `Quick test_lru_replace_and_trim;
        Alcotest.test_case "fold leaves recency" `Quick test_lru_fold;
      ] );
  ]
