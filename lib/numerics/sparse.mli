(** Sparse matrices in compressed-sparse-row form, built from triplets.

    Used for the substrate conductance grid, whose node count (tens of
    thousands) rules out dense storage. *)

type t
(** An immutable CSR matrix. *)

type builder
(** A mutable triplet accumulator. *)

val builder : int -> int -> builder
(** [builder rows cols] is an empty accumulator of the given shape. *)

val add : builder -> int -> int -> float -> unit
(** [add b i j v] accumulates [v] into entry [(i, j)]; duplicate
    coordinates are summed at {!finalize} time.
    Raises [Invalid_argument] on out-of-range indices. *)

val finalize : builder -> t
(** [finalize b] compresses the triplets into CSR form: duplicates of
    one coordinate are summed left to right in the order they were
    {!add}ed (so the result is a deterministic function of the
    insertion sequence), entries that sum to exactly 0 are dropped,
    and columns are strictly ascending within each row.  Cost
    O(nnz + rows) for rows of bounded width (a stable counting sort
    by row, then an insertion sort within each row); rows wider than
    32 entries are merge-sorted. *)

type par = { width : int; run : int -> (int -> unit) -> unit }
(** A parallel loop: [run n f] evaluates [f 0 .. f (n - 1)], at most
    [width] at a time, and returns when all have finished (a worker
    pool's batch run).  The tasks a caller hands it write disjoint
    data, so their order does not matter. *)

val sequential : par
(** The plain loop on the calling domain, [width = 1]. *)

val galerkin : ?par:par -> t -> t -> t
(** [galerkin ?par p a] is the Galerkin product [P{^T} A P] of a square
    [a] and a prolongation [p] with as many rows: one coarse row at a
    time, through a dense accumulator.  Every entry sums its
    contributions [p(i, c) * p(j, d) * a(i, j)] in ascending (fine row
    [i], fine column [j]) order, starting from 0; entries that sum to
    exactly 0 are dropped.  The coarse rows are built in up to
    [par.width] contiguous ranges of at least 256 rows, one task of
    [par] (default {!sequential}) each, with its own accumulator of
    [cols p] floats, and concatenated in row order, so the result is
    bit-identical whatever [par] is.
    Raises [Invalid_argument] on a dimension mismatch. *)

val laplacian_blocks :
  ?par:par -> interior:int -> retained:int -> len:int -> int array ->
  int array -> float array -> t * t * float array
(** [laplacian_blocks ?par ~interior:n ~retained:r ~len bi bj bg] is
    the weighted Laplacian of the [len] branches [(bi.(k), bj.(k))] of
    conductance [bg.(k)] over nodes [0 .. n + r - 1], split into the
    interior block [A_ii] ([max n 1] square, CSR), the retained-interior
    coupling [A_ri] ([r] by [max n 1], CSR) and the retained block
    [A_rr] ([r * r], dense, row-major).  Each entry sums its branch
    contributions in branch order; the result is bit-identical to
    {!add}ing each branch's four stamps [(u,u,g)], [(v,v,g)],
    [(u,v,-g)], [(v,u,-g)] in branch order and {!finalize}-ing, but
    costs two incidence entries per branch instead of four sorted
    triples.  The CSR rows are built as {!galerkin}'s are: in row
    ranges on [par], bit-identical whatever [par] is.
    Raises [Invalid_argument] when a branch names a node outside
    [0 .. n + r - 1]. *)

val of_csr :
  rows:int -> cols:int -> row_ptr:int array -> col_idx:int array ->
  values:float array -> t
(** [of_csr ~rows ~cols ~row_ptr ~col_idx ~values] wraps CSR arrays
    that are already compressed (no copy: the arrays are taken over).
    Raises [Invalid_argument] unless [row_ptr] has length [rows + 1],
    starts at 0 and never decreases, and each row's columns are in
    range and strictly ascending. *)

val rows : t -> int
val cols : t -> int

val nnz : t -> int
(** [nnz m] is the number of stored entries. *)

val get : t -> int -> int -> float
(** [get m i j] is entry [(i, j)] (0 when not stored);
    O(log nnz-per-row). *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec m v] is [m * v]. *)

val mul_vec_into : t -> lanes:int -> Vec.t -> Vec.t -> unit
(** [mul_vec_into m ~lanes v y] writes [m * v] into [y] for [lanes]
    (1 to 4) interleaved vectors: entry [(i, c)] is at
    [lanes * i + c] in both [v] and [y] ([v] and [y] may not alias).
    Each stored entry is read once and applied to every lane; each
    lane sums in the same order as {!mul_vec}, so its result is
    bit-identical to the product of its column alone.
    Raises [Invalid_argument] on a dimension mismatch or [lanes]
    outside 1..4. *)

val diagonal : t -> Vec.t
(** [diagonal m] is the main diagonal (square matrices only). *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row m i f] applies [f j v] to every stored entry of row [i]. *)

val index : t -> int -> int -> int
(** [index m i j] is the position of entry [(i, j)] in {!values}, or
    [-1] when the entry is not stored; O(log nnz-per-row). *)

val row_ptr : t -> int array
(** The live CSR row-pointer array (length [rows + 1]).  Read-only by
    convention. *)

val col_idx : t -> int array
(** The live CSR column-index array (length [nnz], sorted within each
    row).  Read-only by convention. *)

val values : t -> float array
(** The live CSR value array, parallel to {!col_idx}.  Owners may
    refill it in place to reuse one sparsity pattern across many
    numeric assemblies (the pattern itself must not change). *)

val to_dense : t -> Mat.t
(** [to_dense m] converts to a dense matrix (small matrices only). *)
