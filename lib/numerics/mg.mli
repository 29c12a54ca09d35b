(** Geometric multigrid V-cycle preconditioner for regular-grid SPD
    Laplacians — the substrate FDM operator.

    The hierarchy semi-coarsens: x and y halve per level, z is never
    coarsened, because the layered substrate's slabs are thicker than
    its cells are wide and the lateral couplings dominate.  It is
    variational: index-space bilinear (lateral) prolongation [P],
    full-weighting restriction [P{^T}], Galerkin coarse operator
    [P{^T} A P] — so the stretched (snap-line) spacings of
    {!Sn_substrate.Grid} need no special casing.  Smoothing is
    red-black Gauss-Seidel; the post-smoother runs the exact reverse
    sweep of the pre-smoother, which makes one V-cycle a symmetric
    positive-definite operator — the property PCG requires of its
    preconditioner ({!Cg.solve}'s [precond]).  The coarsest level is
    solved directly through an envelope Cholesky factor ({!Chol}) held
    by the hierarchy: its cells are renumbered with the axes in
    ascending extent (the shortest varies fastest), each row's first
    stored column is read off the renumbered sparsity pattern (at most
    45 columns left of the diagonal on a 10x10x4 level, against 400
    columns dense), and each application is one forward and one
    backward sweep.

    {!precond_lanes} applies the V-cycle to up to four interleaved
    vectors at once, for {!Cg.solve_lanes}: every kernel decodes each
    matrix entry once for all lanes, and each lane's result is
    bit-identical to {!precond} on its column alone. *)

type t
(** A multigrid hierarchy bound to one matrix. *)

val build :
  ?coarse_limit:int -> ?par:Sparse.par -> dims:int * int * int ->
  Sparse.t -> t
(** [build ~dims:(nx, ny, nz) a] constructs the hierarchy for the
    grid-ordered matrix [a] (cell [(ix, iy, iz)] at row
    [iz*nx*ny + iy*nx + ix], the {!Sn_substrate.Grid.cell_index}
    layout).  Only x and y coarsen: each of the two whose extent is
    [>= 4] is halved per level ([(n+1)/2], even lines inject), while
    every level keeps all [nz] z lines, until the level holds at most
    [coarse_limit] cells (default 1500) or neither lateral dimension
    coarsens further.  A grid of at most [coarse_limit] cells is a
    one-level hierarchy, its V-cycle the direct solve, on which PCG
    converges in one iteration.  The default is chosen for the tiled
    extractor: a 19x19x4 tile interior (1,444 cells) then costs one
    envelope factor and one sweep pair per column, where a two-level
    hierarchy spends about sixteen V-cycles per column.  The Galerkin
    product and every level's CSR build are linear in the nonzeros.
    Each Galerkin product is built in row ranges on [par] (default
    {!Sparse.sequential}), one {!Sparse.of_rows} call per level; the
    hierarchy is bit-identical whatever [par] is.
    Each level runs one pre- and one post-smoothing sweep.
    Raises [Invalid_argument] when [dims] disagree with the matrix
    size, {!Cg.Zero_diagonal} when a level operator has a zero
    diagonal entry (a disconnected cell — structurally broken input)
    and {!Lu.Singular}[ k] when the coarsest operator is not positive
    definite (a non-positive pivot at renumbered row [k]). *)

val precond : t -> Vec.t -> Vec.t -> unit
(** [precond t] allocates one V-cycle workspace (a few vectors per
    level) and returns the preconditioner application: [precond t r z]
    runs one V-cycle on residual [r] from a zero initial guess and
    writes [M{^-1} r] into [z] ([r] and [z] may not alias).  Pass it as
    {!Cg.solve}'s [precond].  Partially apply it once per solve: the
    returned closure owns its workspace and reuses it on every call,
    so it must not be shared between domains — concurrent solves on
    one hierarchy each take their own [precond t].  The hierarchy
    itself is read-only and safe to share.
    Raises [Invalid_argument] when [r] or [z] has the wrong size. *)

val precond_lanes : t -> lanes:int -> Vec.t -> Vec.t -> unit
(** [precond_lanes t ~lanes] is {!precond} for [lanes] (1 to 4)
    interleaved vectors, entry [(i, c)] at [lanes * i + c] — the
    preconditioner of {!Cg.solve_lanes} with the same [lanes].  Every
    smoother, residual, transfer and coarse-solve kernel decodes each
    matrix entry once and applies it to every lane through per-lane
    accumulators, and lane [c] does exactly the arithmetic, in the same
    order, of [precond t] on its column alone: its result is
    bit-identical.  [precond t] is [precond_lanes t ~lanes:1].
    Raises [Invalid_argument] when [lanes] is outside 1..4, or, on
    application, when a vector is not [lanes] times the grid size. *)

val levels : t -> int
(** Number of levels in the hierarchy (1 = direct coarse solve
    only). *)
