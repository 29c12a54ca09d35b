type result = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float;
  converged : bool;
}

type block = {
  x : Vec.t;
  lane_iterations : int array;
  lane_residual_norms : float array;
  lane_converged : bool array;
}

exception Not_converged of result

exception Zero_diagonal of int

(* Vectors hold [w] (1 to 4) interleaved lanes, entry (i, c) at
   [w * i + c].  Lane c of every kernel below performs exactly the
   operations of the one-lane loop, in ascending i, so a lane's bits
   never depend on its neighbours.  Each kernel is dispatched on the
   lane count to an inlined copy with a constant [w], whose [if w > c]
   guards fold away. *)

(* [out.(c)] <- the dot product of lane c of [u] and [v] *)
let[@inline] dots_lanes w u v out =
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  for i = 0 to (Array.length u / w) - 1 do
    let k = w * i in
    s0 := !s0 +. (u.(k) *. v.(k));
    if w > 1 then s1 := !s1 +. (u.(k + 1) *. v.(k + 1));
    if w > 2 then s2 := !s2 +. (u.(k + 2) *. v.(k + 2));
    if w > 3 then s3 := !s3 +. (u.(k + 3) *. v.(k + 3))
  done;
  out.(0) <- !s0;
  if w > 1 then out.(1) <- !s1;
  if w > 2 then out.(2) <- !s2;
  if w > 3 then out.(3) <- !s3

(* lane c of [y] <- [a.(c)] * lane c of [x] + lane c of [y], on the
   lanes with [on.(c)] only *)
let[@inline] axpy_lanes w on a x y =
  let lane c = w > c && on.(c) in
  let on0 = lane 0 and on1 = lane 1 and on2 = lane 2 and on3 = lane 3 in
  let a0 = a.(0) and a1 = a.(1) and a2 = a.(2) and a3 = a.(3) in
  for i = 0 to (Array.length x / w) - 1 do
    let k = w * i in
    if on0 then y.(k) <- (a0 *. x.(k)) +. y.(k);
    if on1 then y.(k + 1) <- (a1 *. x.(k + 1)) +. y.(k + 1);
    if on2 then y.(k + 2) <- (a2 *. x.(k + 2)) +. y.(k + 2);
    if on3 then y.(k + 3) <- (a3 *. x.(k + 3)) +. y.(k + 3)
  done

(* lane c of [p] <- lane c of [z] + [beta.(c)] * lane c of [p], on the
   lanes with [on.(c)] only *)
let[@inline] next_direction_lanes w on beta z p =
  let lane c = w > c && on.(c) in
  let on0 = lane 0 and on1 = lane 1 and on2 = lane 2 and on3 = lane 3 in
  let b0 = beta.(0) and b1 = beta.(1) and b2 = beta.(2) and b3 = beta.(3) in
  for i = 0 to (Array.length p / w) - 1 do
    let k = w * i in
    if on0 then p.(k) <- z.(k) +. (b0 *. p.(k));
    if on1 then p.(k + 1) <- z.(k + 1) +. (b1 *. p.(k + 1));
    if on2 then p.(k + 2) <- z.(k + 2) +. (b2 *. p.(k + 2));
    if on3 then p.(k + 3) <- z.(k + 3) +. (b3 *. p.(k + 3))
  done

let dots w u v out =
  match w with
  | 1 -> dots_lanes 1 u v out
  | 2 -> dots_lanes 2 u v out
  | 3 -> dots_lanes 3 u v out
  | _ -> dots_lanes 4 u v out

let axpy w on a x y =
  match w with
  | 1 -> axpy_lanes 1 on a x y
  | 2 -> axpy_lanes 2 on a x y
  | 3 -> axpy_lanes 3 on a x y
  | _ -> axpy_lanes 4 on a x y

let next_direction w on beta z p =
  match w with
  | 1 -> next_direction_lanes 1 on beta z p
  | 2 -> next_direction_lanes 2 on beta z p
  | 3 -> next_direction_lanes 3 on beta z p
  | _ -> next_direction_lanes 4 on beta z p

let solve_lanes ?(tol = 1e-10) ?max_iter ?x0 ?precond ~lanes a b =
  let w = lanes in
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg "Cg.solve: matrix not square";
  if w < 1 || w > 4 then invalid_arg "Cg.solve: lanes must be 1..4";
  if Array.length b <> w * n then invalid_arg "Cg.solve: dimension mismatch";
  let max_iter = match max_iter with Some m -> m | None -> 4 * n in
  let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros (w * n) in
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
          for k = w * i to (w * i) + w - 1 do
            z.(k) <- inv_diag.(i) *. r.(k)
          done
        done
  in
  (* per-lane state; the float arrays hold 4 slots, all of which the
     kernels read *)
  let lane_floats () = Array.make 4 0.0 in
  let b_norm = lane_floats () in
  dots w b b b_norm;
  for c = 0 to w - 1 do
    b_norm.(c) <- sqrt b_norm.(c)
  done;
  (* a zero right-hand side has the zero solution: that lane never
     runs, whatever [x0] is *)
  let zero = Array.init w (fun c -> b_norm.(c) = 0.0) in
  let k = Array.make w 0 and res_norm = lane_floats () in
  let breakdown = Array.make w false in
  let running c =
    (not (res_norm.(c) <= tol)) && k.(c) < max_iter && not breakdown.(c)
  in
  let live = Array.make w false in
  if not (Array.for_all Fun.id zero) then begin
    (* the only vectors of the solve: every iteration updates them in
       place *)
    let r = Vec.zeros (w * n) and z = Vec.zeros (w * n)
    and ap = Vec.zeros (w * n) in
    Sparse.mul_vec_into a ~lanes:w x r;
    for i = 0 to (w * n) - 1 do
      r.(i) <- b.(i) -. r.(i)
    done;
    apply_precond r z;
    let p = Vec.copy z in
    let rz = lane_floats () and dot = lane_floats () in
    dots w r z rz;
    dots w r r dot;
    for c = 0 to w - 1 do
      if not zero.(c) then begin
        res_norm.(c) <- sqrt dot.(c) /. b_norm.(c);
        live.(c) <- running c
      end
    done;
    let step = Array.make w false in
    let alpha = lane_floats () and neg_alpha = lane_floats ()
    and beta = lane_floats () in
    (* Lockstep: a lane leaves the loop exactly when its one-lane solve
       would, and its x, r and p are never written again; the matvec,
       the dots and the preconditioner still cover every lane, so the
       shared index decode serves all of them. *)
    while Array.exists Fun.id live do
      (* cooperative cancellation: one ambient-token poll per
         iteration; a matvec dwarfs it *)
      Cancel.tick ();
      Sparse.mul_vec_into a ~lanes:w p ap;
      dots w p ap dot;
      for c = 0 to w - 1 do
        step.(c) <- live.(c) && not (dot.(c) <= 0.0);
        (* loss of positive-definiteness: the lane stops with its
           current iterate *)
        if live.(c) && not step.(c) then begin
          breakdown.(c) <- true;
          live.(c) <- false
        end;
        if step.(c) then begin
          alpha.(c) <- rz.(c) /. dot.(c);
          neg_alpha.(c) <- -.alpha.(c)
        end
      done;
      axpy w step alpha p x;
      axpy w step neg_alpha ap r;
      dots w r r dot;
      for c = 0 to w - 1 do
        if step.(c) then begin
          k.(c) <- k.(c) + 1;
          res_norm.(c) <- sqrt dot.(c) /. b_norm.(c);
          live.(c) <- running c
        end
      done;
      (* the next direction only for lanes with a next iteration: a
         preconditioner application no lane uses is skipped *)
      if Array.exists Fun.id live then begin
        apply_precond r z;
        dots w r z dot;
        for c = 0 to w - 1 do
          if live.(c) then begin
            beta.(c) <- dot.(c) /. rz.(c);
            rz.(c) <- dot.(c)
          end
        done;
        next_direction w live beta z p
      end
    done
  end;
  (* a zero lane's solution is zero, whatever [x0] held *)
  Array.iteri
    (fun c z ->
      if z then
        for i = 0 to n - 1 do
          x.((w * i) + c) <- 0.0
        done)
    zero;
  {
    x;
    lane_iterations = k;
    lane_residual_norms = Array.sub res_norm 0 w;
    lane_converged = Array.init w (fun c -> res_norm.(c) <= tol);
  }

let lane blk c =
  let w = Array.length blk.lane_iterations in
  let n = Array.length blk.x / w in
  {
    solution =
      (if w = 1 then blk.x else Array.init n (fun i -> blk.x.((w * i) + c)));
    iterations = blk.lane_iterations.(c);
    residual_norm = blk.lane_residual_norms.(c);
    converged = blk.lane_converged.(c);
  }

let solve ?tol ?max_iter ?x0 ?precond a b =
  lane (solve_lanes ?tol ?max_iter ?x0 ?precond ~lanes:1 a b) 0

let solve_exn ?tol ?max_iter ?x0 ?precond a b =
  let r = solve ?tol ?max_iter ?x0 ?precond a b in
  if r.converged then r.solution else raise (Not_converged r)
