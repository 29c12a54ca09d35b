(** Axis-aligned rectangles (normalized so [x0 <= x1], [y0 <= y1]). *)

type t = private { x0 : float; y0 : float; x1 : float; y1 : float }

val make : float -> float -> float -> float -> t
(** [make x0 y0 x1 y1] normalizes corner order. *)

val of_corners : Point.t -> Point.t -> t

val of_center : Point.t -> width:float -> height:float -> t
(** Raises [Invalid_argument] on negative [width] or [height]. *)

val width : t -> float
val height : t -> float
val area : t -> float
val perimeter : t -> float

val contains_point : t -> Point.t -> bool
(** Closed-boundary containment. *)

val intersects : t -> t -> bool
(** [intersects a b] is [true] when the closed rectangles overlap
    (touching edges count). *)

val intersection : t -> t -> t option
(** [intersection a b] is the overlap rectangle, [None] when disjoint. *)

val union_bbox : t -> t -> t
(** [union_bbox a b] is the smallest rectangle containing both. *)

val expand : float -> t -> t
(** [expand m r] grows [r] by margin [m] on all four sides
    (negative [m] shrinks; raises [Invalid_argument] if the result
    would be inverted). *)

val bbox_of_points : Point.t list -> t
(** Raises [Invalid_argument] on the empty list. *)

val equal : t -> t -> bool
(** [equal a b] compares corners within an absolute tolerance of
    [1e-9]. *)
