(** Lateral tile partition of the FDM grid for the hierarchical
    (nested Schur) macromodel reduction.

    The die is split into [k x k] rectangles of whole cell columns
    spanning the full substrate depth.  A tile's {e interface} is the
    set of its cells with a lateral neighbour in another tile —
    exactly the outermost cell lines on its cut sides — and the
    remaining {e interior} is itself a box, which is what lets
    {!Sn_numerics.Mg} build its hierarchy per tile.  Reducing each
    tile onto (interface + local ports) and then eliminating the
    interface skeleton is algebraically identical to eliminating every
    grid cell at once (the quotient property of Schur complements), so
    the tiled path is exact, not an approximation.  A [1 x 1] plan has
    no cuts: the single tile's interior is the whole grid and the
    reduction degenerates to the classic whole-die Schur
    complement. *)

(** One tile: lateral cell ranges [[x0, x1) x [y0, y1)] and the
    interior sub-box [[ix0, ix1) x [iy0, iy1)] that remains after the
    interface lines on cut sides are peeled off. *)
type tile = {
  x0 : int;
  x1 : int;
  y0 : int;
  y1 : int;
  ix0 : int;
  ix1 : int;
  iy0 : int;
  iy1 : int;
}

type t = {
  shape : int * int;  (** effective tile counts [(tx, ty)] *)
  nx : int;
  ny : int;
  nz : int;
  tiles : tile array;  (** row-major: tile [(jx, jy)] at [jy*tx + jx] *)
  tile_of : int array;  (** lateral cell [iy*nx + ix] -> tile id *)
}

val plan : tiles:int * int -> nx:int -> ny:int -> nz:int -> t
(** [plan ~tiles:(tx, ty) ~nx ~ny ~nz] partitions the grid with
    balanced cut lines.  Tile counts exceeding the cell counts are
    clamped (an empty tile could never be stitched).  Raises
    [Invalid_argument] on non-positive tile counts or an empty
    grid. *)

val shape : t -> int * int
(** Effective [(tx, ty)] after clamping. *)

val count : t -> int
(** Number of tiles. *)

val is_interior : tile -> ix:int -> iy:int -> bool
(** Whether lateral cell [(ix, iy)] of the tile is interior (no
    lateral neighbour outside the tile). *)

val interior_dims : tile -> nz:int -> int * int * int
(** Interior box dimensions [(w, h, depth)] — the [dims] handed to
    {!Sn_numerics.Mg.build}.  All zero-depth when the interior is
    empty (a one-cell-wide tile cut on both sides). *)

val interior_index : tile -> nz:int -> ix:int -> iy:int -> iz:int -> int
(** Tile-local interior index of global cell [(ix, iy, iz)] in the
    interior box ordering (caller guarantees {!is_interior}). *)

val interface_cells : t -> int -> int array
(** Interface cells of one tile as ascending global cell indices —
    the deterministic retained-node order shared by reduction,
    stitching and the cache labels. *)

val degenerate : tiles:int * int -> grid:int * int -> ports:int -> string option
(** [degenerate ~tiles ~grid ~ports] is a human-readable warning when
    the configuration would leave a tile with zero cells (tile counts
    exceeding grid cells) or guarantee a tile with zero ports
    (pigeonhole: more tiles than substrate ports — a degenerate stitch
    that only adds overhead), and [None] for a sound configuration.
    Shared by the extractor's runtime warning and the
    ["extract-tile-degenerate"] lint rule. *)
