module G = Sn_geometry
module T = Sn_tech.Tech

type config = { nx : int; ny : int; z_per_layer : int list option }

let default_config = { nx = 32; ny = 32; z_per_layer = None }

type t = {
  xs : float array; (* cell boundaries, micrometers, length nx + 1 *)
  ys : float array;
  nz : int;
  slab_dz : float array; (* meters *)
  slab_rho : float array; (* ohm m *)
}

(* Merge uniform baseline lines with feature-edge snap lines. *)
let boundaries lo hi n snaps =
  let uniform =
    List.init (n + 1) (fun i ->
        lo +. (float_of_int i *. (hi -. lo) /. float_of_int n))
  in
  let candidates =
    uniform @ List.filter (fun x -> x > lo && x < hi) snaps
    |> List.sort compare
  in
  let eps = 1.0e-3 (* micrometers: 1 nm *) in
  let rec dedupe = function
    | a :: (b :: _ as rest) ->
      if b -. a < eps then dedupe (a :: List.tl rest) else a :: dedupe rest
    | done_ -> done_
  in
  Array.of_list (dedupe candidates)

let build ?(snap_x = []) ?(snap_y = []) (config : config) ~die
    (profile : T.substrate_profile) =
  if config.nx < 1 || config.ny < 1 then
    invalid_arg "Grid.build: nx and ny must be >= 1";
  if G.Rect.area die <= 0.0 then invalid_arg "Grid.build: empty die";
  let layers = profile.T.layers in
  let subdivisions =
    match config.z_per_layer with
    | None -> List.map (fun _ -> 2) layers
    | Some subs ->
      if List.length subs <> List.length layers then
        invalid_arg "Grid.build: z_per_layer length mismatch";
      if List.exists (fun k -> k < 1) subs then
        invalid_arg "Grid.build: z_per_layer entries must be >= 1";
      subs
  in
  let slabs =
    List.concat
      (List.map2
         (fun (l : T.substrate_layer) k ->
           List.init k (fun _ -> (l.T.depth /. float_of_int k, l.T.resistivity)))
         layers subdivisions)
  in
  let open G.Rect in
  {
    xs = boundaries die.x0 die.x1 config.nx snap_x;
    ys = boundaries die.y0 die.y1 config.ny snap_y;
    nz = List.length slabs;
    slab_dz = Array.of_list (List.map fst slabs);
    slab_rho = Array.of_list (List.map snd slabs);
  }

let nx g = Array.length g.xs - 1
let ny g = Array.length g.ys - 1
let nz g = g.nz
let cell_count g = nx g * ny g * g.nz

let cell_index g ix iy iz =
  let nx = nx g and ny = ny g in
  if ix < 0 || ix >= nx || iy < 0 || iy >= ny || iz < 0 || iz >= g.nz then
    invalid_arg
      (Printf.sprintf "Grid.cell_index: (%d,%d,%d) out of %dx%dx%d" ix iy iz
         nx ny g.nz);
  (iz * nx * ny) + (iy * nx) + ix

let dx g ix = (g.xs.(ix + 1) -. g.xs.(ix)) *. T.micron
let dy g iy = (g.ys.(iy + 1) -. g.ys.(iy)) *. T.micron
let dz g iz = g.slab_dz.(iz)

let surface_cell_rect g ix iy =
  G.Rect.make g.xs.(ix) g.ys.(iy) g.xs.(ix + 1) g.ys.(iy + 1)

(* Box integration: the conductance between adjacent cell centers is
   the series combination of the two half-cell conductances
   G_half = sigma * A / (d / 2). *)
let series_conductance rho1 d1 rho2 d2 area =
  let r1 = rho1 *. (d1 /. 2.0) /. area in
  let r2 = rho2 *. (d2 /. 2.0) /. area in
  1.0 /. (r1 +. r2)

let iter_conductances g f =
  let nx = nx g and ny = ny g in
  for iz = 0 to g.nz - 1 do
    let rho = g.slab_rho.(iz) and dzc = g.slab_dz.(iz) in
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let a = cell_index g ix iy iz in
        (* +x neighbour *)
        if ix + 1 < nx then begin
          let area = dy g iy *. dzc in
          f a (cell_index g (ix + 1) iy iz)
            (series_conductance rho (dx g ix) rho (dx g (ix + 1)) area)
        end;
        (* +y neighbour *)
        if iy + 1 < ny then begin
          let area = dx g ix *. dzc in
          f a (cell_index g ix (iy + 1) iz)
            (series_conductance rho (dy g iy) rho (dy g (iy + 1)) area)
        end;
        (* +z neighbour (deeper) *)
        if iz + 1 < g.nz then begin
          let area = dx g ix *. dy g iy in
          f a (cell_index g ix iy (iz + 1))
            (series_conductance rho dzc g.slab_rho.(iz + 1)
               g.slab_dz.(iz + 1) area)
        end
      done
    done
  done
