(** Guard-ring geometry: a hollow rectangular frame decomposed into
    four strips (a guard ring must never be modeled as its filled
    bounding box). *)

val rects :
  center:Sn_geometry.Point.t -> inner_width:float -> inner_height:float ->
  strip:float -> Sn_geometry.Rect.t list
(** [rects ~center ~inner_width ~inner_height ~strip] is the four
    strips of a frame whose hole is [inner_width x inner_height] and
    whose band is [strip] wide.  Raises [Invalid_argument] on
    non-positive dimensions. *)

val contacts :
  net:string -> center:Sn_geometry.Point.t -> inner:float -> strip:float ->
  Sn_layout.Shape.t list
(** A square ring of substrate-contact strips on [net], whose hole is
    [inner] wide: one resistive substrate port named [net]. *)
