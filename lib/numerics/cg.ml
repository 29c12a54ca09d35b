type result = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float;
  converged : bool;
}

exception Not_converged of result

exception Zero_diagonal of int

let solve ?(tol = 1e-10) ?max_iter ?x0 ?precond a b =
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg "Cg.solve: matrix not square";
  if Array.length b <> n then invalid_arg "Cg.solve: dimension mismatch";
  let max_iter = match max_iter with Some m -> m | None -> 4 * n in
  let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
  let apply_precond =
    match precond with
    | Some f -> f
    | None ->
      (* Jacobi preconditioner: M^-1 = 1/diag(A).  A zero diagonal in
         an SPD system is a structural error (a disconnected cell) —
         refuse it instead of quietly mispreconditioning. *)
      let inv_diag =
        Array.mapi
          (fun i d ->
            if Float.abs d > 0.0 then 1.0 /. d else raise (Zero_diagonal i))
          (Sparse.diagonal a)
      in
      fun r z ->
        for i = 0 to n - 1 do
          z.(i) <- inv_diag.(i) *. r.(i)
        done
  in
  let b_norm = Vec.norm2 b in
  if b_norm = 0.0 then
    { solution = Vec.zeros n; iterations = 0; residual_norm = 0.0; converged = true }
  else begin
    (* the only vectors of the solve: every iteration updates them in
       place *)
    let r = Vec.zeros n and z = Vec.zeros n and ap = Vec.zeros n in
    Sparse.mul_vec_into a x r;
    for i = 0 to n - 1 do
      r.(i) <- b.(i) -. r.(i)
    done;
    apply_precond r z;
    let p = Vec.copy z in
    let rz = ref (Vec.dot r z) in
    let k = ref 0 and res_norm = ref (Vec.norm2 r /. b_norm) in
    let breakdown = ref false in
    let running () =
      (not (!res_norm <= tol)) && !k < max_iter && not !breakdown
    in
    while running () do
      (* cooperative cancellation: one ambient-token poll per
         iteration; a matvec dwarfs it *)
      Cancel.tick ();
      Sparse.mul_vec_into a p ap;
      let p_ap = Vec.dot p ap in
      if p_ap <= 0.0 then
        (* loss of positive-definiteness: stop with current iterate *)
        breakdown := true
      else begin
        let alpha = !rz /. p_ap in
        Vec.axpy alpha p x;
        Vec.axpy (-.alpha) ap r;
        incr k;
        res_norm := Vec.norm2 r /. b_norm;
        (* the next direction only when there is a next iteration: the
           last preconditioner application would be thrown away *)
        if running () then begin
          apply_precond r z;
          let rz' = Vec.dot r z in
          let beta = rz' /. !rz in
          rz := rz';
          for i = 0 to n - 1 do
            p.(i) <- z.(i) +. (beta *. p.(i))
          done
        end
      end
    done;
    {
      solution = x;
      iterations = !k;
      residual_norm = !res_norm;
      converged = !res_norm <= tol;
    }
  end

let solve_exn ?tol ?max_iter ?x0 ?precond a b =
  let r = solve ?tol ?max_iter ?x0 ?precond a b in
  if r.converged then r.solution else raise (Not_converged r)
