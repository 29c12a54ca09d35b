(** A complete layout: a cell library plus a designated top cell,
    with flattening and the spatial queries the extractors need. *)

type t

exception Unknown_cell of string
exception Recursive_hierarchy of string

val create : top:string -> Cell.t list -> t
(** [create ~top cells] builds a layout.  Raises {!Unknown_cell} when
    [top] or an instanced cell is missing, [Invalid_argument] on
    duplicate cell names, and {!Recursive_hierarchy} on instance
    cycles. *)

val top_name : t -> string
val cells : t -> Cell.t list
val flatten : t -> Shape.t list
(** [flatten l] expands the hierarchy under the top cell into a flat
    list of transformed shapes. *)

val shapes_on_layer : t -> Layer.t -> Shape.t list
(** Flattened shapes of one layer. *)

val shapes_of_net : t -> string -> Shape.t list
(** Flattened shapes attached to one net. *)

val nets : t -> string list
(** Sorted distinct net names present after flattening. *)

val bbox : t -> Sn_geometry.Rect.t
(** Bounding box of the flattened layout.
    Raises [Invalid_argument] when empty. *)

val map_shapes : (Shape.t -> Shape.t) -> t -> t
(** [map_shapes f l] rewrites every shape of every cell — used for the
    Fig. 10 ground-line widening. *)
