(** Dense vectors of floats. *)

type t = float array

val zeros : int -> t
(** [zeros n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [[| f 0; ...; f (n-1) |]]. *)

val copy : t -> t
(** [copy v] is a fresh copy of [v]. *)

val dot : t -> t -> float
(** [dot a b] is the inner product.  Raises [Invalid_argument] on
    dimension mismatch. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a *. x + y] in place. *)

val norm2 : t -> float
(** [norm2 v] is the Euclidean norm. *)

val max_abs_diff : t -> t -> float
(** [max_abs_diff a b] is the largest [|a.(i) - b.(i)|]. *)
