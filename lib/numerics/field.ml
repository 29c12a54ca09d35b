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
  val of_float : float -> t
  val pp : Format.formatter -> t -> unit
end

module Cplx = struct
  type t = Complex.t

  let zero = Complex.zero
  let one = Complex.one
  let add = Complex.add
  let sub = Complex.sub
  let mul = Complex.mul
  let div = Complex.div
  let neg = Complex.neg
  let magnitude = Complex.norm
  let of_float x = { Complex.re = x; im = 0.0 }
  let pp fmt { Complex.re; im } = Format.fprintf fmt "(%g%+gi)" re im
end
