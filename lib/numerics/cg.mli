(** Preconditioned conjugate-gradient solver for symmetric
    positive-definite sparse systems — the grounded substrate
    conductance Laplacian is SPD, so CG is the workhorse of the
    macromodel reduction. *)

type result = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float;
      (** [||r|| / ||b||] for the recursively updated residual
          [r <- r - alpha A p], the quantity the tolerance is tested
          on.  Rounding lets it drift from the true
          [||b - A x|| / ||b||] of the returned solution. *)
  converged : bool;
}

exception Not_converged of result
(** Raised by {!solve_exn} when the iteration cap is reached before the
    tolerance. *)

exception Zero_diagonal of int
(** [Zero_diagonal i] is raised when row [i] of the matrix has a zero
    diagonal entry — structurally impossible for a correctly assembled
    SPD conductance system, so it is refused instead of silently
    mispreconditioned.  Callers that know the grid geometry
    ({!Sn_substrate.Extractor}) translate [i] back into the offending
    cell coordinates. *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Vec.t ->
  ?precond:(Vec.t -> Vec.t -> unit) ->
  Sparse.t ->
  Vec.t ->
  result
(** [solve ?tol ?max_iter ?x0 ?precond a b] runs preconditioned CG on
    [A x = b].  [precond r z] writes [M{^-1} r] into [z] (in place,
    never aliasing [r]) and must be a symmetric positive-definite
    operator (e.g. {!Mg.precond}); when omitted, a Jacobi
    preconditioner is built from the diagonal of [a], raising
    {!Zero_diagonal} on a zero entry.  The preconditioner runs once on
    the initial residual and then once after every iteration that is
    not the last, so a solve that stops converged or at [max_iter]
    after [k >= 1] iterations applies it exactly [k] times.  The solve
    allocates its solution and four work vectors once and updates them
    in place on every iteration.  [tol] is the relative residual
    target (default [1e-10]); [max_iter] defaults to
    [4 * dim].  Raises [Invalid_argument] when [a] is not square or
    dimensions mismatch. *)

val solve_exn :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Vec.t ->
  ?precond:(Vec.t -> Vec.t -> unit) ->
  Sparse.t ->
  Vec.t ->
  Vec.t
(** Like {!solve} but returns the solution directly and raises
    {!Not_converged} on failure. *)
