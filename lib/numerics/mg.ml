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
   Galerkin triple product P^T A P ({!Sparse.galerkin}, in row ranges
   on [par]). *)
let build_transfer ~par (nx, ny, nz) (cx, cy) a =
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
  let p =
    Sparse.of_csr ~rows:n ~cols:nc ~row_ptr:p_ptr
      ~col_idx:(Dyn.I.to_array p_idx) ~values:(Dyn.F.to_array p_w)
  in
  ( Sparse.row_ptr p, Sparse.col_idx p, Sparse.values p,
    Sparse.galerkin ~par p a )

(* Envelope Cholesky factor of the coarsest operator ({!Chol}).  Its
   cells are renumbered with the axes in ascending extent, the shortest
   varying fastest, so every stencil neighbour lies within a few planes
   of band rows; each row's first stored column is its leftmost
   neighbour in the renumbered CSR pattern.  [perm.(k)] is the cell at
   band row [k]. *)
type band = { env : Chol.t; perm : int array; l : float array }

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
  let first = Array.init n Fun.id in
  for i = 0 to n - 1 do
    let k = pos.(i) in
    for e = rp.(i) to rp.(i + 1) - 1 do
      first.(k) <- min first.(k) pos.(ci.(e))
    done
  done;
  let env = Chol.envelope first in
  let l = Array.make (Chol.size env) 0.0 in
  for i = 0 to n - 1 do
    let k = pos.(i) in
    for e = rp.(i) to rp.(i + 1) - 1 do
      let j = pos.(ci.(e)) in
      if j <= k then l.(Chol.index env k j) <- v.(e)
    done
  done;
  Chol.factor env l;
  let perm = Array.make n 0 in
  Array.iteri (fun i k -> perm.(k) <- i) pos;
  { env; perm; l }

(* Solve A x = b through the envelope factor for [w] interleaved
   right-hand sides; [y] is band-ordered scratch. *)
let band_solve { env; perm; l } w y b x =
  let n = Array.length perm in
  for k = 0 to n - 1 do
    for c = 0 to w - 1 do
      y.((w * k) + c) <- b.((w * perm.(k)) + c)
    done
  done;
  Chol.forward env l ~lanes:w y;
  Chol.backward env l ~lanes:w y;
  for k = 0 to n - 1 do
    for c = 0 to w - 1 do
      x.((w * perm.(k)) + c) <- y.((w * k) + c)
    done
  done

type t = { levels : level array; coarse : band }

let levels t = Array.length t.levels

let build ?(coarse_limit = 1500) ?(par = Sparse.sequential) ~dims a =
  let nx, ny, nz = dims in
  let n = nx * ny * nz in
  if Sparse.rows a <> n || Sparse.cols a <> n then
    invalid_arg "Mg.build: dims do not match matrix size";
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
      let p_ptr, p_idx, p_w, a_c = build_transfer ~par dims (cx, cy) a in
      let lvl = level a dims (p_ptr, p_idx, p_w) (cx * cy * nz) in
      grow a_c (cx, cy, nz) (lvl :: acc)
    end
  in
  let levels, a_last, dims_last = grow a dims [] in
  (* the coarsest operator is band-factored once; with only one level
     the V-cycle degenerates to that direct solve *)
  { levels; coarse = band_factor a_last dims_last }

(* The level kernels act on [w] (1 to 4) interleaved vectors, entry
   (i, c) at [w * i + c].  Each decoded matrix or transfer entry is
   applied to every lane through the per-lane accumulators [s0..s3],
   and lane c performs exactly the operations, in exactly the order,
   of the one-lane kernel on its own column.  Each kernel is written
   once and dispatched on the lane count to an inlined copy with a
   constant [w]: its [if w > c] guards fold away, so every width runs
   guard-free code and one lane runs the plain one-column loop. *)

(* One Gauss-Seidel sweep over the given cell order (forward = the
   stored red-then-black order; the post-smoother passes it
   reversed). *)
let[@inline] gs_sweep_lanes w lvl b x ~reverse =
  let order = lvl.order in
  let rp = lvl.row_ptr and ci = lvl.col_idx and v = lvl.values in
  let m = Array.length order in
  for k = 0 to m - 1 do
    let i = order.(if reverse then m - 1 - k else k) in
    let wi = w * i in
    let s0 = ref b.(wi) in
    let s1 = ref (if w > 1 then b.(wi + 1) else 0.0) in
    let s2 = ref (if w > 2 then b.(wi + 2) else 0.0) in
    let s3 = ref (if w > 3 then b.(wi + 3) else 0.0) in
    for e = rp.(i) to rp.(i + 1) - 1 do
      let j = ci.(e) in
      if j <> i then begin
        let a = v.(e) and wj = w * j in
        s0 := !s0 -. (a *. x.(wj));
        if w > 1 then s1 := !s1 -. (a *. x.(wj + 1));
        if w > 2 then s2 := !s2 -. (a *. x.(wj + 2));
        if w > 3 then s3 := !s3 -. (a *. x.(wj + 3))
      end
    done;
    let d = lvl.inv_diag.(i) in
    x.(wi) <- !s0 *. d;
    if w > 1 then x.(wi + 1) <- !s1 *. d;
    if w > 2 then x.(wi + 2) <- !s2 *. d;
    if w > 3 then x.(wi + 3) <- !s3 *. d
  done

let[@inline] residual_lanes w lvl b x r =
  let rp = lvl.row_ptr and ci = lvl.col_idx and v = lvl.values in
  for i = 0 to lvl.n - 1 do
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for e = rp.(i) to rp.(i + 1) - 1 do
      let a = v.(e) and wj = w * ci.(e) in
      s0 := !s0 +. (a *. x.(wj));
      if w > 1 then s1 := !s1 +. (a *. x.(wj + 1));
      if w > 2 then s2 := !s2 +. (a *. x.(wj + 2));
      if w > 3 then s3 := !s3 +. (a *. x.(wj + 3))
    done;
    let wi = w * i in
    r.(wi) <- b.(wi) -. !s0;
    if w > 1 then r.(wi + 1) <- b.(wi + 1) -. !s1;
    if w > 2 then r.(wi + 2) <- b.(wi + 2) -. !s2;
    if w > 3 then r.(wi + 3) <- b.(wi + 3) -. !s3
  done

let[@inline] restrict_lanes w lvl r rc =
  Array.fill rc 0 (Array.length rc) 0.0;
  for i = 0 to lvl.n - 1 do
    let wi = w * i in
    let r0 = r.(wi) in
    let r1 = if w > 1 then r.(wi + 1) else 0.0 in
    let r2 = if w > 2 then r.(wi + 2) else 0.0 in
    let r3 = if w > 3 then r.(wi + 3) else 0.0 in
    for e = lvl.p_ptr.(i) to lvl.p_ptr.(i + 1) - 1 do
      let a = lvl.p_w.(e) and wc = w * lvl.p_idx.(e) in
      rc.(wc) <- rc.(wc) +. (a *. r0);
      if w > 1 then rc.(wc + 1) <- rc.(wc + 1) +. (a *. r1);
      if w > 2 then rc.(wc + 2) <- rc.(wc + 2) +. (a *. r2);
      if w > 3 then rc.(wc + 3) <- rc.(wc + 3) +. (a *. r3)
    done
  done

let[@inline] prolong_add_lanes w lvl xc x =
  for i = 0 to lvl.n - 1 do
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for e = lvl.p_ptr.(i) to lvl.p_ptr.(i + 1) - 1 do
      let a = lvl.p_w.(e) and wc = w * lvl.p_idx.(e) in
      s0 := !s0 +. (a *. xc.(wc));
      if w > 1 then s1 := !s1 +. (a *. xc.(wc + 1));
      if w > 2 then s2 := !s2 +. (a *. xc.(wc + 2));
      if w > 3 then s3 := !s3 +. (a *. xc.(wc + 3))
    done;
    let wi = w * i in
    x.(wi) <- x.(wi) +. !s0;
    if w > 1 then x.(wi + 1) <- x.(wi + 1) +. !s1;
    if w > 2 then x.(wi + 2) <- x.(wi + 2) +. !s2;
    if w > 3 then x.(wi + 3) <- x.(wi + 3) +. !s3
  done

let gs_sweep lvl w b x ~reverse =
  match w with
  | 1 -> gs_sweep_lanes 1 lvl b x ~reverse
  | 2 -> gs_sweep_lanes 2 lvl b x ~reverse
  | 3 -> gs_sweep_lanes 3 lvl b x ~reverse
  | _ -> gs_sweep_lanes 4 lvl b x ~reverse

let residual lvl w b x r =
  match w with
  | 1 -> residual_lanes 1 lvl b x r
  | 2 -> residual_lanes 2 lvl b x r
  | 3 -> residual_lanes 3 lvl b x r
  | _ -> residual_lanes 4 lvl b x r

let restrict lvl w r rc =
  match w with
  | 1 -> restrict_lanes 1 lvl r rc
  | 2 -> restrict_lanes 2 lvl r rc
  | 3 -> restrict_lanes 3 lvl r rc
  | _ -> restrict_lanes 4 lvl r rc

let prolong_add lvl w xc x =
  match w with
  | 1 -> prolong_add_lanes 1 lvl xc x
  | 2 -> prolong_add_lanes 2 lvl xc x
  | 3 -> prolong_add_lanes 3 lvl xc x
  | _ -> prolong_add_lanes 4 lvl xc x

(* Per-solve V-cycle workspace for [w] lanes: on every level below the
   finest, the restricted residual [b] and the correction [x]; on every
   level but the coarsest, the residual [r]; and the band solve's
   scratch [y].  The finest level's right-hand side and correction are
   the caller's vectors. *)
type work = {
  w : int;
  b : Vec.t array;
  x : Vec.t array;
  r : Vec.t array;
  y : Vec.t;
}

let workspace t w =
  let vec l = Vec.zeros (w * t.levels.(l).n) in
  let nl = Array.length t.levels in
  let below_finest l = if l = 0 then [||] else vec l in
  {
    w;
    b = Array.init nl below_finest;
    x = Array.init nl below_finest;
    r = Array.init nl (fun l -> if l = nl - 1 then [||] else vec l);
    y = vec (nl - 1);
  }

let rec v_cycle t ws l b x =
  let lvl = t.levels.(l) and w = ws.w in
  if l = Array.length t.levels - 1 then band_solve t.coarse w ws.y b x
  else begin
    Array.fill x 0 (w * lvl.n) 0.0;
    gs_sweep lvl w b x ~reverse:false;
    let r = ws.r.(l) in
    residual lvl w b x r;
    let bc = ws.b.(l + 1) and xc = ws.x.(l + 1) in
    restrict lvl w r bc;
    v_cycle t ws (l + 1) bc xc;
    prolong_add lvl w xc x;
    gs_sweep lvl w b x ~reverse:true
  end

let precond_lanes t ~lanes =
  if lanes < 1 || lanes > 4 then invalid_arg "Mg.precond: lanes must be 1..4";
  let ws = workspace t lanes in
  let n = lanes * t.levels.(0).n in
  fun r z ->
    if Array.length r <> n || Array.length z <> n then
      invalid_arg "Mg.precond: dimension mismatch";
    (* one cancellation poll per V-cycle; the cycle itself is bounded *)
    Cancel.poll ();
    v_cycle t ws 0 r z

let precond t = precond_lanes t ~lanes:1
