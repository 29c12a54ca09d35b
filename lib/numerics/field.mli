(** Scalar fields over which the dense linear algebra is functorized.

    {!Lu.Make} takes an implementation of {!S}; its one instance is the
    complex field of the dense AC solves ({!Lu.Cplx}).  Real systems go
    through {!Lu}'s flat row-major kernel instead. *)

module type S = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t

  val magnitude : t -> float
  (** [magnitude x] is a non-negative pivoting weight, zero iff [x] is
      (numerically) zero. *)

  val of_float : float -> t
  val pp : Format.formatter -> t -> unit
end

module Cplx : S with type t = Complex.t
(** Complex arithmetic on the standard library's [Complex.t]. *)
