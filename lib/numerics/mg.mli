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
    solved directly through a dense {!Lu} factorization held by the
    hierarchy. *)

type t
(** A multigrid hierarchy bound to one matrix. *)

val build : ?nu:int -> ?coarse_limit:int -> dims:int * int * int -> Sparse.t -> t
(** [build ~dims:(nx, ny, nz) a] constructs the hierarchy for the
    grid-ordered matrix [a] (cell [(ix, iy, iz)] at row
    [iz*nx*ny + iy*nx + ix], the {!Sn_substrate.Grid.cell_index}
    layout).  Only x and y coarsen: each of the two whose extent is
    [>= 4] is halved per level ([(n+1)/2], even lines inject), while
    every level keeps all [nz] z lines, until the level holds at most
    [coarse_limit] cells (default 600) or neither lateral dimension
    coarsens further.  The Galerkin product and every level's CSR
    build are linear in the nonzeros.  [nu] (default 1) is the number
    of pre- and post-smoothing sweeps.
    Raises [Invalid_argument] when [dims] disagree with the matrix
    size and {!Cg.Zero_diagonal} when a level operator has a zero
    diagonal entry (a disconnected cell — structurally broken
    input). *)

val apply : t -> Vec.t -> Vec.t
(** [apply t r] runs one V-cycle on residual [r] from a zero initial
    guess — the preconditioner application [M{^-1} r].  Allocates its
    own workspaces, so concurrent calls from pool workers sharing one
    hierarchy are safe.  Pass [Mg.apply t] as {!Cg.solve}'s
    [precond]. *)

val levels : t -> int
(** Number of levels in the hierarchy (1 = direct coarse solve
    only). *)
