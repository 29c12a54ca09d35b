(** 2-D points.  Layout coordinates are in micrometers throughout the
    layout / extraction layers; the extractors convert to SI. *)

type t = { x : float; y : float }

val v : float -> float -> t
(** [v x y] is the point [(x, y)]. *)

val zero : t

val add : t -> t -> t

val distance : t -> t -> float
(** [distance a b] is the Euclidean distance. *)

val equal : t -> t -> bool
(** [equal a b] compares within an absolute tolerance of [1e-9]. *)
