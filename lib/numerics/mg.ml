(* Geometric multigrid V-cycle preconditioner for the FDM substrate
   Laplacian.  The hierarchy semi-coarsens: only x and y halve per
   level, every z level is kept.  The substrate slabs are far thicker
   than the cells are wide, so the lateral couplings dominate the
   vertical ones by about (dz/dx)^2 and the error a point smoother
   leaves behind is smooth in x-y but not in z; coarsening z as well
   would hand that error to a grid that cannot represent it.  The
   hierarchy is built variationally: index-space bilinear prolongation
   P per level, restriction P^T, Galerkin coarse operator P^T A P — so
   nonuniform (snap-line) spacings need no special casing.  Smoothing
   is red-black Gauss-Seidel; the post-smoother sweeps in exactly the
   reverse order of the pre-smoother, which makes one V-cycle a
   symmetric positive-definite operator, as PCG requires. *)

type level = {
  a : Sparse.t;
  n : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
  inv_diag : float array;
  order : int array; (* red cells ascending, then black cells ascending *)
  (* interpolation from the next-coarser level, CSR over fine rows;
     empty arrays on the coarsest level *)
  p_ptr : int array;
  p_idx : int array;
  p_w : float array;
  coarse_n : int;
}

(* 1-D index-space coarsening of a lateral dimension: even fine lines
   inject, odd fine lines average their two coarse flanks.  Extents
   below 4 stay as they are. *)
let coarsen_dim nf = if nf >= 4 then (nf + 1) / 2 else nf

let interp_1d nf nc =
  Array.init nf (fun i ->
      if nc = nf then [| (i, 1.0) |]
      else if i land 1 = 0 then [| (i / 2, 1.0) |]
      else begin
        let l = (i - 1) / 2 in
        let r = l + 1 in
        if r < nc then [| (l, 0.5); (r, 0.5) |] else [| (l, 1.0) |]
      end)

let red_black_order (nx, ny, nz) =
  let n = nx * ny * nz in
  let order = Array.make n 0 in
  let pos = ref 0 in
  for parity = 0 to 1 do
    for iz = 0 to nz - 1 do
      for iy = 0 to ny - 1 do
        for ix = 0 to nx - 1 do
          if (ix + iy + iz) land 1 = parity then begin
            order.(!pos) <- (iz * nx * ny) + (iy * nx) + ix;
            incr pos
          end
        done
      done
    done
  done;
  order

let inv_diag_of a =
  Array.mapi
    (fun i d ->
      if Float.abs d > 0.0 then 1.0 /. d else raise (Cg.Zero_diagonal i))
    (Sparse.diagonal a)

(* Tensor-product prolongation from (cx, cy, nz) to (nx, ny, nz) as a
   CSR map fine -> coarse entries (z is the identity), and the
   Galerkin triple product P^T A P.  The product runs one coarse row
   at a time over P^T, accumulating into a dense row with a mark
   array, and emits CSR directly.  Every coarse entry sums its
   contributions in ascending (fine row i, fine column j) order,
   starting from 0. *)
let build_transfer (nx, ny, nz) (cx, cy) a =
  let mx = interp_1d nx cx and my = interp_1d ny cy in
  let n = nx * ny * nz in
  let nc = cx * cy * nz in
  let p_ptr = Array.make (n + 1) 0 in
  let p_idx = Dyn.I.create ~capacity:(4 * n) ()
  and p_w = Dyn.F.create ~capacity:(4 * n) () in
  for iz = 0 to nz - 1 do
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let i = (iz * nx * ny) + (iy * nx) + ix in
        Array.iter
          (fun (jy, wy) ->
            Array.iter
              (fun (jx, wx) ->
                Dyn.I.push p_idx ((iz * cx * cy) + (jy * cx) + jx);
                Dyn.F.push p_w (wx *. wy))
              mx.(ix))
          my.(iy);
        p_ptr.(i + 1) <- Dyn.I.length p_idx
      done
    done
  done;
  let p_idx = Dyn.I.to_array p_idx and p_w = Dyn.F.to_array p_w in
  let nnz_p = Array.length p_idx in
  (* P^T by a counting sort over the coarse columns: each coarse row
     lists its fine rows in ascending order *)
  let t_ptr = Array.make (nc + 1) 0 in
  Array.iter (fun c -> t_ptr.(c + 1) <- t_ptr.(c + 1) + 1) p_idx;
  for c = 0 to nc - 1 do
    t_ptr.(c + 1) <- t_ptr.(c + 1) + t_ptr.(c)
  done;
  let t_row = Array.make nnz_p 0 and t_w = Array.make nnz_p 0.0 in
  let next = Array.sub t_ptr 0 nc in
  for i = 0 to n - 1 do
    for e = p_ptr.(i) to p_ptr.(i + 1) - 1 do
      let c = p_idx.(e) in
      t_row.(next.(c)) <- i;
      t_w.(next.(c)) <- p_w.(e);
      next.(c) <- next.(c) + 1
    done
  done;
  (* Galerkin coarse operator *)
  let a_ptr = Sparse.row_ptr a
  and a_idx = Sparse.col_idx a
  and a_val = Sparse.values a in
  let acc = Array.make nc 0.0 in
  let mark = Array.make nc (-1) in
  let touched = Array.make nc 0 in
  let c_ptr = Array.make (nc + 1) 0 in
  let c_idx = Dyn.I.create ~capacity:(max 1 (27 * nc)) () in
  let c_val = Dyn.F.create ~capacity:(max 1 (27 * nc)) () in
  for ci = 0 to nc - 1 do
    let m = ref 0 in
    for t = t_ptr.(ci) to t_ptr.(ci + 1) - 1 do
      let i = t_row.(t) and wi = t_w.(t) in
      for e = a_ptr.(i) to a_ptr.(i + 1) - 1 do
        let j = a_idx.(e) and aij = a_val.(e) in
        for f = p_ptr.(j) to p_ptr.(j + 1) - 1 do
          let cj = p_idx.(f) in
          if mark.(cj) <> ci then begin
            mark.(cj) <- ci;
            acc.(cj) <- 0.0;
            touched.(!m) <- cj;
            incr m
          end;
          acc.(cj) <- acc.(cj) +. (wi *. p_w.(f) *. aij)
        done
      done
    done;
    (* the coarse stencil is a few dozen wide: insertion-sort it *)
    for p = 1 to !m - 1 do
      let c = touched.(p) in
      let q = ref (p - 1) in
      while !q >= 0 && touched.(!q) > c do
        touched.(!q + 1) <- touched.(!q);
        decr q
      done;
      touched.(!q + 1) <- c
    done;
    for p = 0 to !m - 1 do
      let cj = touched.(p) in
      if acc.(cj) <> 0.0 then begin
        Dyn.I.push c_idx cj;
        Dyn.F.push c_val acc.(cj)
      end
    done;
    c_ptr.(ci + 1) <- Dyn.I.length c_idx
  done;
  let a_c =
    Sparse.of_csr ~rows:nc ~cols:nc ~row_ptr:c_ptr
      ~col_idx:(Dyn.I.to_array c_idx) ~values:(Dyn.F.to_array c_val)
  in
  (p_ptr, p_idx, p_w, a_c)

(* Banded Cholesky factor of the coarsest operator ({!Chol}).  Its
   cells are renumbered with the axes in ascending extent, the shortest
   varying fastest, so every stencil neighbour lies within [bw] band
   rows; [bw] is read off the renumbered CSR pattern.  [perm.(k)] is
   the cell at band row [k]. *)
type band = { bw : int; perm : int array; l : float array }

let band_factor a (nx, ny, nz) =
  let n = nx * ny * nz in
  let ext = [| nx; ny; nz |] in
  let axes =
    Array.of_list
      (List.stable_sort (fun p q -> compare ext.(p) ext.(q)) [ 0; 1; 2 ])
  in
  let stride = Array.make 3 1 in
  stride.(axes.(1)) <- ext.(axes.(0));
  stride.(axes.(2)) <- ext.(axes.(0)) * ext.(axes.(1));
  let pos = Array.make n 0 in
  for iz = 0 to nz - 1 do
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        pos.((iz * nx * ny) + (iy * nx) + ix) <-
          (ix * stride.(0)) + (iy * stride.(1)) + (iz * stride.(2))
      done
    done
  done;
  let rp = Sparse.row_ptr a and ci = Sparse.col_idx a and v = Sparse.values a in
  let bw = ref 0 in
  for i = 0 to n - 1 do
    for e = rp.(i) to rp.(i + 1) - 1 do
      bw := max !bw (abs (pos.(i) - pos.(ci.(e))))
    done
  done;
  let bw = !bw in
  let l = Array.make (n * (bw + 1)) 0.0 in
  for i = 0 to n - 1 do
    let k = pos.(i) in
    for e = rp.(i) to rp.(i + 1) - 1 do
      let j = pos.(ci.(e)) in
      if j <= k then l.(Chol.index ~bw k j) <- v.(e)
    done
  done;
  Chol.factor ~bw l;
  let perm = Array.make n 0 in
  Array.iteri (fun i k -> perm.(k) <- i) pos;
  { bw; perm; l }

(* Solve A x = b through the band factor; [y] is band-ordered
   scratch. *)
let band_solve { bw; perm; l } y b x =
  let n = Array.length perm in
  for k = 0 to n - 1 do
    y.(k) <- b.(perm.(k))
  done;
  Chol.forward ~bw l y;
  Chol.backward ~bw l y;
  for k = 0 to n - 1 do
    x.(perm.(k)) <- y.(k)
  done

type t = { levels : level array; coarse : band; nu : int }

let levels t = Array.length t.levels

let build ?(nu = 1) ?(coarse_limit = 600) ~dims a =
  let nx, ny, nz = dims in
  let n = nx * ny * nz in
  if Sparse.rows a <> n || Sparse.cols a <> n then
    invalid_arg "Mg.build: dims do not match matrix size";
  if nu < 1 then invalid_arg "Mg.build: nu must be >= 1";
  let level a dims (p_ptr, p_idx, p_w) coarse_n =
    let nx, ny, nz = dims in
    {
      a;
      n = nx * ny * nz;
      row_ptr = Sparse.row_ptr a;
      col_idx = Sparse.col_idx a;
      values = Sparse.values a;
      inv_diag = inv_diag_of a;
      order = red_black_order dims;
      p_ptr;
      p_idx;
      p_w;
      coarse_n;
    }
  in
  let rec grow a dims acc =
    let nx, ny, nz = dims in
    let cx = coarsen_dim nx and cy = coarsen_dim ny in
    if nx * ny * nz <= coarse_limit || (cx = nx && cy = ny) then
      let last = level a dims ([||], [||], [||]) 0 in
      (Array.of_list (List.rev (last :: acc)), a, dims)
    else begin
      let p_ptr, p_idx, p_w, a_c = build_transfer dims (cx, cy) a in
      let lvl = level a dims (p_ptr, p_idx, p_w) (cx * cy * nz) in
      grow a_c (cx, cy, nz) (lvl :: acc)
    end
  in
  let levels, a_last, dims_last = grow a dims [] in
  (* the coarsest operator is band-factored once; with only one level
     the V-cycle degenerates to that direct solve *)
  { levels; coarse = band_factor a_last dims_last; nu }

(* One Gauss-Seidel sweep over the given cell order (forward = the
   stored red-then-black order; the post-smoother passes it
   reversed). *)
let gs_sweep lvl b x ~reverse =
  let order = lvl.order in
  let rp = lvl.row_ptr and ci = lvl.col_idx and v = lvl.values in
  let m = Array.length order in
  for k = 0 to m - 1 do
    let i = order.(if reverse then m - 1 - k else k) in
    let s = ref b.(i) in
    for e = rp.(i) to rp.(i + 1) - 1 do
      let j = ci.(e) in
      if j <> i then s := !s -. (v.(e) *. x.(j))
    done;
    x.(i) <- !s *. lvl.inv_diag.(i)
  done

let residual lvl b x r =
  let rp = lvl.row_ptr and ci = lvl.col_idx and v = lvl.values in
  for i = 0 to lvl.n - 1 do
    let s = ref 0.0 in
    for e = rp.(i) to rp.(i + 1) - 1 do
      s := !s +. (v.(e) *. x.(ci.(e)))
    done;
    r.(i) <- b.(i) -. !s
  done

let restrict lvl r rc =
  Array.fill rc 0 (Array.length rc) 0.0;
  for i = 0 to lvl.n - 1 do
    let ri = r.(i) in
    for e = lvl.p_ptr.(i) to lvl.p_ptr.(i + 1) - 1 do
      rc.(lvl.p_idx.(e)) <- rc.(lvl.p_idx.(e)) +. (lvl.p_w.(e) *. ri)
    done
  done

let prolong_add lvl xc x =
  for i = 0 to lvl.n - 1 do
    let s = ref 0.0 in
    for e = lvl.p_ptr.(i) to lvl.p_ptr.(i + 1) - 1 do
      s := !s +. (lvl.p_w.(e) *. xc.(lvl.p_idx.(e)))
    done;
    x.(i) <- x.(i) +. !s
  done

(* Per-solve V-cycle workspace: on every level below the finest, the
   restricted residual [b] and the correction [x]; on every level but
   the coarsest, the residual [r]; and the band solve's scratch [y].
   The finest level's right-hand side and correction are the caller's
   vectors. *)
type work = { b : Vec.t array; x : Vec.t array; r : Vec.t array; y : Vec.t }

let workspace t =
  let vec l = Vec.zeros t.levels.(l).n in
  let nl = Array.length t.levels in
  let below_finest l = if l = 0 then [||] else vec l in
  {
    b = Array.init nl below_finest;
    x = Array.init nl below_finest;
    r = Array.init nl (fun l -> if l = nl - 1 then [||] else vec l);
    y = vec (nl - 1);
  }

let rec v_cycle t w l b x =
  let lvl = t.levels.(l) in
  if l = Array.length t.levels - 1 then band_solve t.coarse w.y b x
  else begin
    Array.fill x 0 lvl.n 0.0;
    for _ = 1 to t.nu do
      gs_sweep lvl b x ~reverse:false
    done;
    let r = w.r.(l) in
    residual lvl b x r;
    let bc = w.b.(l + 1) and xc = w.x.(l + 1) in
    restrict lvl r bc;
    v_cycle t w (l + 1) bc xc;
    prolong_add lvl xc x;
    for _ = 1 to t.nu do
      gs_sweep lvl b x ~reverse:true
    done
  end

let precond t =
  let w = workspace t in
  let n = t.levels.(0).n in
  fun r z ->
    if Array.length r <> n || Array.length z <> n then
      invalid_arg "Mg.precond: dimension mismatch";
    (* one cancellation poll per V-cycle; the cycle itself is bounded *)
    Cancel.poll ();
    v_cycle t w 0 r z
