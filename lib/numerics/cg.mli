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

type block = {
  x : Vec.t;
      (** the lanes' solutions, interleaved: entry [(i, c)] at
          [lanes * i + c] *)
  lane_iterations : int array;
  lane_residual_norms : float array;
  lane_converged : bool array;
}
(** The result of {!solve_lanes}: slot [c] of each array is lane [c]'s
    field of {!result}. *)

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
    [A x = b]: the one-lane case of {!solve_lanes}.  [precond r z] writes [M{^-1} r] into [z] (in place,
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

val solve_lanes :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Vec.t ->
  ?precond:(Vec.t -> Vec.t -> unit) ->
  lanes:int ->
  Sparse.t ->
  Vec.t ->
  block
(** [solve_lanes ~lanes a b] solves [A x = b_c] for [lanes] (1 to 4)
    right-hand sides at once, in lockstep.  [b], [x0] and the vectors
    [precond] sees hold the lanes interleaved: entry [(i, c)] is at
    [lanes * i + c], so [precond] must be a lane-aware operator of the
    same width ({!Mg.precond_lanes}); the Jacobi default handles any
    width.  The solutions come back interleaved in [x], the solve's own
    iterate, so a caller reads each lane in place; {!lane} copies one
    out.

    Every lane performs exactly the arithmetic of {!solve} on its
    column alone, in the same order: its own [alpha], [beta], [r.z],
    residual norm, iteration count and breakdown flag, and dots summed
    in ascending row order.  A lane leaves the loop exactly when that
    one-column solve would stop, and its [x], [r] and direction are
    never written afterwards; so each lane's solution, iteration count,
    residual norm and [converged] flag are bit-identical to {!solve}'s,
    whatever the other lanes hold.  The matrix product, the dots and
    the preconditioner run over all lanes, which is what pays: each
    decoded matrix entry serves every lane.  The preconditioner runs
    once on the initial residual (unless every lane is zero) and then
    after every iteration some lane continues past, so a block applies
    it as often as its longest lane's one-column solve would.
    {!Cancel.tick} runs once per iteration, as in {!solve}.  The solve
    allocates the same five vectors as {!solve}, each [lanes] times as
    long, and nothing per lane.
    Raises [Invalid_argument] when [a] is not square, [lanes] is
    outside 1..4 or [b] is not [lanes] times the dimension. *)

val lane : block -> int -> result
(** [lane blk c] is lane [c] of [blk] as a one-column {!result}: with
    one lane, [solution] is [blk.x] itself; with more, a de-interleaved
    copy. *)

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
