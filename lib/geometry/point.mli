(** 2-D points.  Layout coordinates are in micrometers throughout the
    layout / extraction layers; the extractors convert to SI. *)

type t = { x : float; y : float }

val v : float -> float -> t
(** [v x y] is the point [(x, y)]. *)

val zero : t

val add : t -> t -> t
val sub : t -> t -> t

val distance : t -> t -> float
(** [distance a b] is the Euclidean distance. *)

val equal : ?tol:float -> t -> t -> bool
(** [equal ?tol a b] compares within absolute tolerance [tol]
    (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
