(** Finite-difference discretization of the die substrate.

    The lateral grid starts from [nx * ny] uniform lines and
    additionally {e snaps} to any supplied feature edges (port
    rectangle boundaries), so thin guard rings and gaps are resolved
    exactly instead of aliasing against the cell raster.  The vertical
    direction is divided into sublayers per
    {!Sn_tech.Tech.substrate_layer}.  Cells are indexed [(ix, iy, iz)]
    with [iz = 0] at the surface. *)

type config = {
  nx : int;  (** baseline uniform cell count in x *)
  ny : int;
  z_per_layer : int list option;
      (** subdivisions per profile layer (surface first); [None] picks
          a default of 2 sublayers per layer *)
}

val default_config : config
(** 32 x 32 lateral cells, default vertical subdivision. *)

type t

val build :
  ?snap_x:float list -> ?snap_y:float list -> config ->
  die:Sn_geometry.Rect.t -> Sn_tech.Tech.substrate_profile -> t
(** [build ?snap_x ?snap_y config ~die profile] discretizes.  [die]
    and the snap coordinates are in micrometers; snap lines outside
    the die or closer than 1 nm to an existing line are dropped.
    Raises [Invalid_argument] for non-positive cell counts, an empty
    die, or a [z_per_layer] whose length does not match the profile. *)

val nx : t -> int
(** Actual cell count in x (baseline + snapped lines). *)

val ny : t -> int
val nz : t -> int
val cell_count : t -> int

val cell_index : t -> int -> int -> int -> int
(** [cell_index g ix iy iz] is the linear cell index.
    Raises [Invalid_argument] out of range. *)

val dx : t -> int -> float
(** [dx g ix] is the width of column [ix], meters. *)

val dy : t -> int -> float

val dz : t -> int -> float
(** [dz g iz] is the thickness of z-slab [iz], meters. *)

val surface_cell_rect : t -> int -> int -> Sn_geometry.Rect.t
(** [surface_cell_rect g ix iy] is the micrometre-unit footprint of
    column [(ix, iy)] — used to intersect with port regions. *)

val iter_conductances : t -> (int -> int -> float -> unit) -> unit
(** [iter_conductances g f] calls [f cell_a cell_b conductance] once per
    adjacent cell pair (box-integration conductance, Siemens). *)
