(** Wire paths: a centerline polyline with a width, the layout shape
    the interconnect extractor turns into resistor chains. *)

type t = private { points : Point.t list; width : float }

val make : width:float -> Point.t list -> t
(** [make ~width points] builds a path.  Raises [Invalid_argument] when
    [width <= 0] or fewer than 2 points are given. *)

val points : t -> Point.t list
val width : t -> float

val length : t -> float
(** [length p] is the total centerline length. *)

val squares : t -> float
(** [squares p] is [length / width] — the number of sheet-resistance
    squares the path represents. *)

val segments : t -> (Point.t * Point.t) list
(** [segments p] is the list of consecutive point pairs. *)

val bbox : t -> Rect.t
(** [bbox p] is the bounding box of the drawn metal, i.e. the
    centerline bbox expanded by half the width. *)

val scale_width : float -> t -> t
(** [scale_width k p] multiplies the width by [k] (the Fig. 10
    "enlarge the ground lines" operation).
    Raises [Invalid_argument] when [k <= 0]. *)
