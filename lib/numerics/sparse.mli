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

val is_symmetric : ?tol:float -> t -> bool
(** [is_symmetric ?tol m] checks structural + numeric symmetry. *)

val to_dense : t -> Mat.t
(** [to_dense m] converts to a dense matrix (small matrices only). *)
