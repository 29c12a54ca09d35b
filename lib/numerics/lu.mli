(** Dense LU factorization with partial pivoting: a complex kernel on
    arrays of rows for the AC systems ({!Cplx}) and a flat row-major
    kernel for real systems ({!factor_mat}). *)

exception Singular of int
(** [Singular k] is raised when no usable pivot exists at elimination
    step [k]. *)

(** Complex dense LU, for the AC systems below the sparse crossover. *)
module Cplx : sig
  type matrix = Complex.t array array
  (** Square matrices as arrays of rows. *)

  type t
  (** A factorization [P*A = L*U]. *)

  val decompose : matrix -> t
  (** [decompose a] factorizes a copy of [a], pivoting on the modulus
      ({!Complex.norm}).
      Raises {!Singular} if [a] is singular to working precision and
      [Invalid_argument] if [a] is not square. *)

  val solve : t -> Complex.t array -> Complex.t array
  (** [solve lu b] solves [A x = b].
      Raises [Invalid_argument] if [b] has the wrong length. *)

  val solve_transpose : t -> Complex.t array -> Complex.t array
  (** [solve_transpose lu b] solves [A{^T} x = b] on the {e existing}
      factorization of [A] (U{^T} then L{^T} sweeps) — no transposed
      matrix is built and no second factorization is run.  This is the
      adjoint-analysis primitive: the noise engine factors the forward
      AC system once per frequency and reuses it for the transposed
      solve.  Raises [Invalid_argument] if [b] has the wrong length. *)

  val dim : t -> int
  (** [dim lu] is the matrix dimension. *)
end

type rfactor
(** A real factorization [P*A = L*U] held in flat row-major form — no
    per-row boxing, refillable in place for repeated factorizations of
    same-shape systems. *)

val factor_mat : Mat.t -> rfactor
(** [factor_mat a] factorizes a copy of [a] (one flat array copy).
    Raises {!Singular} / [Invalid_argument] as {!Cplx.decompose}. *)

val refactor_mat : rfactor -> Mat.t -> unit
(** [refactor_mat f a] refills [f] from [a], reusing both workspaces.
    Raises [Invalid_argument] on shape mismatch and {!Singular} as
    {!factor_mat} (the factor is then invalid until the next
    successful refill). *)

val solve_factored : rfactor -> Vec.t -> Vec.t
(** [solve_factored f b] solves [A x = b] from an existing factor. *)

val rdim : rfactor -> int
(** Matrix dimension of the factor. *)

val solve_mat : Mat.t -> Vec.t -> Vec.t
(** [solve_mat a b] solves the dense real system [A x = b] on the flat
    representation directly.
    Raises {!Singular} or [Invalid_argument] as {!Cplx.decompose}. *)
