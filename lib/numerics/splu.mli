(** Sparse LU factorization with reusable symbolic structure, for real
    and complex systems.

    Left-looking Gilbert–Peierls with partial pivoting.  The first
    factorization of a matrix picks the pivot order and the L/U fill
    patterns; {!refactor} and {!Cplx.refactor} refill the values of a
    matrix with the {e same sparsity pattern} without any graph work or
    pivot search (one netlist, many Newton iterations, timesteps or
    frequencies).  Both fields share one symbolic core and differ only
    in their column numerics.  Systems smaller than the crossover are
    factored densely ({!Lu}) behind the same interface. *)

exception Singular of int
(** [Singular k]: no usable pivot at elimination step [k] — zero,
    non-finite or structurally missing. *)

val default_crossover : int
(** Systems with fewer unknowns than this are factored densely. *)

(** {1 Counters}

    Process-wide and atomic, so counts stay exact when solves run on
    parallel domains.  Both fields count into the same three. *)

val factorizations : unit -> int
(** Fresh factorizations (symbolic + numeric, or dense). *)

val refactorizations : unit -> int
(** Pattern-reusing numeric refills. *)

val solves : unit -> int
(** Triangular solves, forward or transposed. *)

val reset_stats : unit -> unit
(** Zero all three counters. *)

(** {1 Real systems} *)

type t
(** A real factor, sparse or dense. *)

val dim : t -> int
(** Number of unknowns. *)

val is_dense : t -> bool
(** Whether the factor fell back to dense LU. *)

val factor : ?crossover:int -> Sparse.t -> t
(** [factor ?crossover m] factors [m], densely when it has fewer than
    [crossover] (default {!default_crossover}) rows.
    Raises [Invalid_argument] if [m] is not square and {!Singular} if
    no usable pivot exists. *)

val refactor : t -> Sparse.t -> unit
(** [refactor f m] refills [f] from [m], keeping the pivot order.
    Raises [Invalid_argument] if [m]'s dimension differs from [f]'s or
    (sparse factor) its sparsity pattern changed, and {!Singular} if a
    kept pivot is zero or non-finite; [f] is then unusable until the
    next successful refill. *)

val factor_dense : Mat.t -> t
(** [factor_dense a] is a dense factor of [a], for callers that
    assemble straight into a {!Mat.t}.
    Raises [Invalid_argument] if [a] is not square and {!Singular}. *)

val refactor_dense : t -> Mat.t -> unit
(** [refactor_dense f a] refills a dense factor from [a].
    Raises [Invalid_argument] if [f] is sparse or the shapes differ and
    {!Singular} as {!refactor}. *)

val solve : t -> Vec.t -> Vec.t
(** [solve f b] solves [A x = b].
    Raises [Invalid_argument] if [b] has the wrong length. *)

(** {1 Complex systems} *)

module Cplx : sig
  type mat = { pattern : Sparse.t; re : float array; im : float array }
  (** A complex matrix on a real CSR pattern: [re.(p)] and [im.(p)] are
      the parts of the entry at CSR index [p] of [pattern] (whose own
      values are ignored). *)

  val mat_of_pattern : Sparse.t -> mat
  (** An all-zero matrix on [pattern]. *)

  val mat_clear : mat -> unit
  (** Zero every value in place. *)

  val mat_to_dense : mat -> Complex.t array array
  (** The dense array-of-rows copy. *)

  type t
  (** A complex factor, sparse or dense. *)

  val dim : t -> int
  (** Number of unknowns. *)

  val is_dense : t -> bool
  (** Whether the factor fell back to dense LU. *)

  val factor : ?crossover:int -> mat -> t
  (** As the real {!Splu.factor}: raises [Invalid_argument] if the
      matrix is not square and {!Singular}. *)

  val refactor : t -> mat -> unit
  (** As the real {!Splu.refactor}: raises [Invalid_argument] on a
      dimension mismatch or (sparse factor) a changed pattern, and
      {!Singular}. *)

  val clone : t -> t
  (** A factor with its own numeric values and workspace that shares
      the symbolic structure, so each parallel worker can refill its
      own copy of one pattern. *)

  val solve : t -> Complex.t array -> Complex.t array
  (** [solve f b] solves [A x = b].
      Raises [Invalid_argument] if [b] has the wrong length. *)

  val solve_transpose : t -> Complex.t array -> Complex.t array
  (** [solve_transpose f b] solves [A{^T} x = b] on the existing
      factor (the adjoint solve of noise analysis).
      Raises [Invalid_argument] if [b] has the wrong length. *)
end
