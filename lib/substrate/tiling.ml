(* Lateral k x k tile partition of the FDM grid for the hierarchical
   (nested Schur) reduction.

   Tiles are rectangles of whole cell columns spanning the full
   substrate depth, so a tile's interface — the cells with a lateral
   neighbour in another tile — is exactly the outermost cell lines on
   its cut sides, and the interior that remains is itself a box: the
   shape the geometric multigrid hierarchy is built on.  Cell indices
   follow Grid.cell_index ordering throughout. *)

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
  shape : int * int;
  nx : int;
  ny : int;
  nz : int;
  tiles : tile array;
  tile_of : int array; (* lateral cell iy*nx + ix -> tile id *)
}

let shape t = t.shape
let count t = Array.length t.tiles

let plan ~tiles:(txr, tyr) ~nx ~ny ~nz =
  if txr < 1 || tyr < 1 then
    invalid_arg "Tiling.plan: tile counts must be >= 1";
  if nx < 1 || ny < 1 || nz < 1 then
    invalid_arg "Tiling.plan: empty grid";
  (* more tiles than cell columns would leave empty tiles: clamp *)
  let tx = min txr nx and ty = min tyr ny in
  let bx = Array.init (tx + 1) (fun k -> k * nx / tx) in
  let by = Array.init (ty + 1) (fun k -> k * ny / ty) in
  let tiles =
    Array.init (tx * ty) (fun id ->
        let jx = id mod tx and jy = id / tx in
        let x0 = bx.(jx) and x1 = bx.(jx + 1) in
        let y0 = by.(jy) and y1 = by.(jy + 1) in
        {
          x0;
          x1;
          y0;
          y1;
          (* interface = boundary lines on cut sides only; the die
             edge is a natural boundary, not a cut *)
          ix0 = (if jx > 0 then x0 + 1 else x0);
          ix1 = (if jx < tx - 1 then x1 - 1 else x1);
          iy0 = (if jy > 0 then y0 + 1 else y0);
          iy1 = (if jy < ty - 1 then y1 - 1 else y1);
        })
  in
  let tile_of = Array.make (nx * ny) 0 in
  Array.iteri
    (fun id tl ->
      for iy = tl.y0 to tl.y1 - 1 do
        for ix = tl.x0 to tl.x1 - 1 do
          tile_of.((iy * nx) + ix) <- id
        done
      done)
    tiles;
  { shape = (tx, ty); nx; ny; nz; tiles; tile_of }


let is_interior tl ~ix ~iy =
  ix >= tl.ix0 && ix < tl.ix1 && iy >= tl.iy0 && iy < tl.iy1

let interior_dims tl ~nz =
  let w = max 0 (tl.ix1 - tl.ix0) and h = max 0 (tl.iy1 - tl.iy0) in
  (w, h, (if w = 0 || h = 0 then 0 else nz))

let interior_index tl ~nz:_ ~ix ~iy ~iz =
  let w = tl.ix1 - tl.ix0 and h = tl.iy1 - tl.iy0 in
  (iz * w * h) + ((iy - tl.iy0) * w) + (ix - tl.ix0)

(* interface cells of one tile, ascending global cell index — the
   deterministic retained-node order every phase agrees on *)
let interface_cells t id =
  let tl = t.tiles.(id) in
  let acc = ref [] in
  for iz = t.nz - 1 downto 0 do
    for iy = tl.y1 - 1 downto tl.y0 do
      for ix = tl.x1 - 1 downto tl.x0 do
        if not (is_interior tl ~ix ~iy) then
          acc := ((iz * t.nx * t.ny) + (iy * t.nx) + ix) :: !acc
      done
    done
  done;
  Array.of_list !acc

let degenerate ~tiles:(tx, ty) ~grid:(nx, ny) ~ports =
  if tx < 1 || ty < 1 then Some "tile counts must be >= 1"
  else if tx > nx || ty > ny then
    Some
      (Printf.sprintf
         "%dx%d tiles exceed the %dx%d cell grid: some tiles would hold \
          zero cells (no interface nodes to stitch)"
         tx ty nx ny)
  else if ports > 0 && tx * ty > ports then
    Some
      (Printf.sprintf
         "%d tiles for %d substrate ports: at least one tile holds no \
          port and only contributes stitch overhead"
         (tx * ty) ports)
  else None
