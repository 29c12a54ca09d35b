(** Sparse LU factorization with reusable symbolic structure, for real
    and complex systems.

    Left-looking Gilbert–Peierls with partial pivoting.  The first
    factorization of a matrix picks the pivot order and the L/U fill
    patterns; {!refactor} and {!Cplx.refactor} refill the values of a
    matrix with the {e same sparsity pattern} without any graph work or
    pivot search (one netlist, many Newton iterations, timesteps or
    frequencies).  Both fields share one symbolic core and differ only
    in their column numerics.  Every system, however small, is factored
    by this one kernel. *)

exception Singular of int
(** [Singular k]: no usable pivot at elimination step [k] — zero,
    non-finite or structurally missing. *)

(** {1 Counters}

    Process-wide and atomic, so counts stay exact when solves run on
    parallel domains.  Both fields count into the same three. *)

val factorizations : unit -> int
(** Fresh factorizations (symbolic + numeric). *)

val refactorizations : unit -> int
(** Pattern-reusing numeric refills. *)

val solves : unit -> int
(** Triangular solves, forward or transposed. *)

(** {1 Real systems} *)

type t
(** A real factor. *)

val factor : Sparse.t -> t
(** [factor m] factors [m].
    Raises [Invalid_argument] if [m] is not square and {!Singular} if
    no usable pivot exists. *)

val refactor : t -> Sparse.t -> unit
(** [refactor f m] refills [f] from [m], keeping the pivot order.
    Raises [Invalid_argument] if [m]'s dimension differs from [f]'s or
    its sparsity pattern changed, and {!Singular} if a kept pivot is
    zero or non-finite; [f] is then unusable until the next successful
    refill. *)

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

  type t
  (** A complex factor. *)

  val factor : mat -> t
  (** As the real {!Splu.factor}: raises [Invalid_argument] if the
      matrix is not square and {!Singular}. *)

  val refactor : t -> mat -> unit
  (** As the real {!Splu.refactor}: raises [Invalid_argument] on a
      dimension mismatch or a changed pattern, and
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
