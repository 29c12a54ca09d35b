(** Dense vectors of floats. *)

type t = float array

val make : int -> float -> t
(** [make n v] is a vector of [n] copies of [v]. *)

val zeros : int -> t
(** [zeros n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [[| f 0; ...; f (n-1) |]]. *)

val copy : t -> t
(** [copy v] is a fresh copy of [v]. *)

val dot : t -> t -> float
(** [dot a b] is the inner product.  Raises [Invalid_argument] on
    dimension mismatch. *)

val add : t -> t -> t
(** [add a b] is the elementwise sum. *)

val sub : t -> t -> t
(** [sub a b] is the elementwise difference. *)

val scale : float -> t -> t
(** [scale k v] is [k *. v] elementwise. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a *. x + y] in place. *)

val norm2 : t -> float
(** [norm2 v] is the Euclidean norm. *)

val max_abs_diff : t -> t -> float
(** [max_abs_diff a b] is the largest [|a.(i) - b.(i)|]. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt v] prints [v] as [[v0; v1; ...]]. *)
