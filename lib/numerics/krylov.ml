(* PRIMA block-Krylov reduction of symmetric (G, C) pencils.

   The implementation keeps port rows explicit (block-diagonal
   congruence W = blkdiag(I_P, V), the SPRIM trick) so the reduced
   pencil partitions exactly like the original one and realizes back
   into an R/C branch network over (ports + rank) nodes. *)

type result = {
  nports : int;
  internal : int;
  rank : int;
  order : int;
  dc_exact : bool;
  ghat : Mat.t;
  chat : Mat.t;
  build_seconds : float;
}

(* Modified Gram-Schmidt, run twice for orthogonality to working
   precision.  Returns [None] when [v] is (numerically) dependent on
   the basis — the deflation test of the block Arnoldi loop. *)
let orthonormalize basis v =
  let n0 = Vec.norm2 v in
  if n0 = 0.0 then None
  else begin
    for _pass = 1 to 2 do
      List.iter
        (fun q ->
          let h = Vec.dot q v in
          Vec.axpy (-.h) q v)
        basis
    done;
    let nv = Vec.norm2 v in
    if nv <= 1e-10 *. n0 then None
    else begin
      let inv = 1.0 /. nv in
      for i = 0 to Array.length v - 1 do
        v.(i) <- v.(i) *. inv
      done;
      Some v
    end
  end

let reduce ?(s0 = 2.0 *. Float.pi *. 1e8) ?(order = 2) ~g ~c ports =
  let t0 = Unix.gettimeofday () in
  let n = Sparse.rows g in
  if Sparse.cols g <> n then invalid_arg "Krylov.reduce: g must be square";
  if Sparse.rows c <> n || Sparse.cols c <> n then
    invalid_arg "Krylov.reduce: c must match g";
  let order = max 1 order in
  let p = Array.length ports in
  (* Partition: pidx/iidx map a global row to its port / internal slot. *)
  let pidx = Array.make n (-1) in
  Array.iteri
    (fun a gi ->
      if gi < 0 || gi >= n then invalid_arg "Krylov.reduce: port out of range";
      if pidx.(gi) >= 0 then invalid_arg "Krylov.reduce: duplicate port";
      pidx.(gi) <- a)
    ports;
  let iidx = Array.make n (-1) in
  let m = ref 0 in
  for gi = 0 to n - 1 do
    if pidx.(gi) < 0 then begin
      iidx.(gi) <- !m;
      incr m
    end
  done;
  let m = !m in
  (* Scatter both pencils into the partitioned blocks.  The port-port
     corner stays dense (it is p x p and lands in the reduced model
     verbatim); internal-internal blocks stay sparse; the coupling
     blocks are dense columns, one per port. *)
  let split sp =
    let bb = Sparse.builder (max m 1) (max m 1) in
    let pp = Mat.make p p in
    let ip = Array.init p (fun _ -> Vec.zeros (max m 1)) in
    for row = 0 to n - 1 do
      Sparse.iter_row sp row (fun col v ->
          if pidx.(row) >= 0 then begin
            if pidx.(col) >= 0 then Mat.add_to pp pidx.(row) (pidx.(col)) v
            (* port-internal handled from the symmetric mirror below *)
          end
          else if pidx.(col) >= 0 then ip.(pidx.(col)).(iidx.(row)) <- v
          else Sparse.add bb (iidx.(row)) (iidx.(col)) v)
    done;
    (Sparse.finalize bb, pp, ip)
  in
  let g_ii, g_pp, g_ip = split g in
  let c_ii, c_pp, c_ip = split c in
  if m = 0 then
    {
      nports = p;
      internal = 0;
      rank = 0;
      order;
      dc_exact = true;
      ghat = g_pp;
      chat = c_pp;
      build_seconds = Unix.gettimeofday () -. t0;
    }
  else begin
    (* A = G_II + s0 C_II, factored once and reused for every column. *)
    let ab = Sparse.builder m m in
    for i = 0 to m - 1 do
      Sparse.iter_row g_ii i (fun j v -> Sparse.add ab i j v);
      Sparse.iter_row c_ii i (fun j v -> Sparse.add ab i j (s0 *. v))
    done;
    let a = Splu.factor (Sparse.finalize ab) in
    let basis = ref [] and rank = ref 0 in
    let push block col =
      match orthonormalize !basis col with
      | None -> block
      | Some q ->
        basis := !basis @ [ q ];
        incr rank;
        q :: block
    in
    (* DC correction block: spanning G_II⁻¹ G_IP makes the reduced
       model's s = 0 response exact regardless of the expansion point
       (Galerkin projection reproduces any solution inside the span),
       so reduction never shifts a deck's DC bias.  When G_II alone is
       singular (a capacitor-only internal node) the network has no
       unique DC solution to preserve and the block is skipped. *)
    let dc_exact =
      s0 = 0.0
      ||
      match Splu.factor g_ii with
      | exception Splu.Singular _ -> false
      | gfac ->
        Array.iter
          (fun col ->
            if Vec.norm2 col > 0.0 && !rank < m then
              ignore (push [] (Splu.solve gfac col)))
          g_ip;
        true
    in
    (* Starting block at s0: A⁻¹ [G_IP C_IP] (zero columns skipped). *)
    let first =
      List.fold_left
        (fun block col ->
          if Vec.norm2 col = 0.0 || !rank >= m then block
          else push block (Splu.solve a col))
        []
        (Array.to_list g_ip @ Array.to_list c_ip)
    in
    (* Higher moments: each next block is A⁻¹ C_II · (previous block). *)
    let block = ref first in
    let j = ref 1 in
    while !j < order && !block <> [] && !rank < m do
      block :=
        List.fold_left
          (fun nb v ->
            if !rank >= m then nb
            else
              let w = Sparse.mul_vec c_ii v in
              if Vec.norm2 w = 0.0 then nb else push nb (Splu.solve a w))
          [] !block;
      incr j
    done;
    let k = !rank in
    let v = Array.of_list !basis in
    (* Congruence Ĝ = Wᵀ G W with W = [E_P, E_I V]:
         Ĝ_PP = G_PP, Ĝ_PI = G_PI V (= G_IPᵀ V by symmetry),
         Ĝ_II = Vᵀ G_II V — and identically for Ĉ. *)
    let project pp ip ii =
      let h = Mat.make (p + k) (p + k) in
      for a' = 0 to p - 1 do
        for b = 0 to p - 1 do
          Mat.set h a' b (Mat.get pp a' b)
        done;
        for l = 0 to k - 1 do
          let x = Vec.dot ip.(a') v.(l) in
          Mat.set h a' (p + l) x;
          Mat.set h (p + l) a' x
        done
      done;
      for l = 0 to k - 1 do
        let w = Sparse.mul_vec ii v.(l) in
        for l' = l to k - 1 do
          let x = Vec.dot w v.(l') in
          Mat.set h (p + l) (p + l') x;
          Mat.set h (p + l') (p + l) x
        done
      done;
      h
    in
    let ghat = project g_pp g_ip g_ii in
    let chat = project c_pp c_ip c_ii in
    {
      nports = p;
      internal = m;
      rank = k;
      order;
      dc_exact;
      ghat;
      chat;
      build_seconds = Unix.gettimeofday () -. t0;
    }
  end

let port_admittance ~g ~c ~ports ~omega =
  let n = Mat.rows g in
  if Mat.cols g <> n || Mat.rows c <> n || Mat.cols c <> n then
    invalid_arg "Krylov.port_admittance: shape mismatch";
  let p = Array.length ports in
  let pidx = Array.make n (-1) in
  Array.iteri
    (fun a gi ->
      if gi < 0 || gi >= n then
        invalid_arg "Krylov.port_admittance: port out of range";
      if pidx.(gi) >= 0 then invalid_arg "Krylov.port_admittance: duplicate port";
      pidx.(gi) <- a)
    ports;
  let internal = ref [] in
  for gi = n - 1 downto 0 do
    if pidx.(gi) < 0 then internal := gi :: !internal
  done;
  let internal = Array.of_list !internal in
  let m = Array.length internal in
  let k i j =
    { Complex.re = Mat.get g i j; im = omega *. Mat.get c i j }
  in
  let y = Array.init p (fun a -> Array.init p (fun b -> k ports.(a) ports.(b))) in
  if m > 0 then begin
    let kii =
      Array.init m (fun i -> Array.init m (fun j -> k internal.(i) internal.(j)))
    in
    let lu = Lu.Cplx.decompose kii in
    for b = 0 to p - 1 do
      let rhs = Array.init m (fun i -> k internal.(i) ports.(b)) in
      let x = Lu.Cplx.solve lu rhs in
      for a = 0 to p - 1 do
        let acc = ref Complex.zero in
        for i = 0 to m - 1 do
          acc := Complex.add !acc (Complex.mul (k ports.(a) internal.(i)) x.(i))
        done;
        y.(a).(b) <- Complex.sub y.(a).(b) !acc
      done
    done
  end;
  y

let psd_defect_index m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Krylov.psd_defect_index: square matrices only";
  (* LDLᵀ without pivoting on the symmetric part; for a PSD input all
     pivots are >= 0 (a zero pivot forces a zero row, which we treat as
     eliminated).  Scaled so the defect is comparable across
     magnitudes. *)
  let a = Array.init n (fun i ->
      Array.init n (fun j -> 0.5 *. (Mat.get m i j +. Mat.get m j i)))
  in
  let scale = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      scale := Float.max !scale (Float.abs a.(i).(j))
    done
  done;
  let tiny = 1e-14 *. Float.max !scale 1.0 in
  let defect = ref 0.0 and at = ref 0 in
  for kk = 0 to n - 1 do
    let d = a.(kk).(kk) in
    if d < !defect then begin
      defect := d;
      at := kk
    end;
    if Float.abs d > tiny then
      for i = kk + 1 to n - 1 do
        let f = a.(i).(kk) /. d in
        if f <> 0.0 then
          for j = kk to n - 1 do
            a.(i).(j) <- a.(i).(j) -. f *. a.(kk).(j)
          done
      done
    else
      (* a (near-)zero pivot over a nonzero row means indefiniteness *)
      for i = kk + 1 to n - 1 do
        let off = Float.abs a.(i).(kk) in
        if off > tiny && -.off < !defect then begin
          defect := -.off;
          at := kk
        end
      done
  done;
  (!defect, !at)
