(** Dense products and comparisons that test oracles are stated with,
    built on {!Sn_numerics.Mat}'s accessors.  No solver path runs
    them. *)

val identity : int -> Sn_numerics.Mat.t
(** [identity n] is the [n]x[n] identity. *)

val mul : Sn_numerics.Mat.t -> Sn_numerics.Mat.t -> Sn_numerics.Mat.t
(** [mul a b] is the matrix product.  Raises [Invalid_argument] on
    dimension mismatch. *)

val mul_vec : Sn_numerics.Mat.t -> Sn_numerics.Vec.t -> Sn_numerics.Vec.t
(** [mul_vec m v] is [m * v].  Raises [Invalid_argument] on dimension
    mismatch. *)

val is_symmetric : ?tol:float -> Sn_numerics.Mat.t -> bool
(** [is_symmetric ?tol m] checks symmetry within absolute tolerance
    [tol] (default [1e-9]). *)

val max_abs_diff : Sn_numerics.Vec.t -> Sn_numerics.Vec.t -> float
(** [max_abs_diff a b] is the largest [|a.(i) - b.(i)|].  Raises
    [Invalid_argument] on dimension mismatch. *)
