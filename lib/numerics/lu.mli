(** Dense LU factorization with partial pivoting: a complex kernel on
    arrays of rows ({!Cplx}) and a flat row-major real solve
    ({!solve_mat}).  Sparse systems go through {!Splu}. *)

exception Singular of int
(** [Singular k] is raised when no usable pivot exists at elimination
    step [k]. *)

(** Complex dense LU, for small dense blocks such as a Krylov port
    admittance's interior system. *)
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
end

val solve_mat : Mat.t -> Vec.t -> Vec.t
(** [solve_mat a b] solves the dense real system [A x = b] on the flat
    representation directly (one copy of [a], eliminated in place).
    Raises {!Singular} or [Invalid_argument] as {!Cplx.decompose}. *)
