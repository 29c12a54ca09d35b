module G = Sn_geometry
module N = Sn_numerics
module T = Sn_tech.Tech

type network = {
  adj : (int, float) Hashtbl.t array;  (** neighbour -> branch conductance *)
  alive : bool array;
  is_port : bool array;
  ports : int array;
}

let add_branch net i j g =
  if i <> j && g <> 0.0 then begin
    let bump a b =
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt net.adj.(a) b) in
      Hashtbl.replace net.adj.(a) b (cur +. g)
    in
    bump i j;
    bump j i
  end

let of_conductances ~n ~ports edges =
  let net =
    {
      adj = Array.init n (fun _ -> Hashtbl.create 8);
      alive = Array.make n true;
      is_port = Array.make n false;
      ports;
    }
  in
  Array.iter
    (fun p ->
      if p < 0 || p >= n then invalid_arg "Elimination: port out of range";
      net.is_port.(p) <- true)
    ports;
  List.iter
    (fun (i, j, g) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Elimination: node out of range";
      if g <= 0.0 then invalid_arg "Elimination: conductance must be > 0";
      add_branch net i j g)
    edges;
  net

(* Star-mesh: eliminating node k inserts g_ik g_jk / g_k between every
   neighbour pair. *)
let eliminate_node net k =
  let neighbours =
    Hashtbl.fold
      (fun j g acc -> if net.alive.(j) then (j, g) :: acc else acc)
      net.adj.(k) []
  in
  let total = List.fold_left (fun acc (_, g) -> acc +. g) 0.0 neighbours in
  if total > 0.0 then begin
    let arr = Array.of_list neighbours in
    let m = Array.length arr in
    for a = 0 to m - 1 do
      let i, gi = arr.(a) in
      for b = a + 1 to m - 1 do
        let j, gj = arr.(b) in
        add_branch net i j (gi *. gj /. total)
      done
    done
  end;
  List.iter (fun (j, _) -> Hashtbl.remove net.adj.(j) k) neighbours;
  Hashtbl.reset net.adj.(k);
  net.alive.(k) <- false

(* Greedy minimum degree: a full scan for the lowest-degree internal
   node (ties to the lowest index) before every elimination, O(n) per
   eliminated node. *)
let eliminate_internal net =
  let n = Array.length net.alive in
  let remaining = ref 0 in
  for i = 0 to n - 1 do
    if net.alive.(i) && not (net.is_port.(i)) then incr remaining
  done;
  while !remaining > 0 do
    let best = ref (-1) and best_deg = ref max_int in
    for i = 0 to n - 1 do
      if net.alive.(i) && not (net.is_port.(i)) then begin
        let deg = Hashtbl.length net.adj.(i) in
        if deg < !best_deg then begin
          best := i;
          best_deg := deg
        end
      end
    done;
    eliminate_node net !best;
    decr remaining
  done

let port_conductance net =
  let np = Array.length net.ports in
  let index_of = Hashtbl.create np in
  Array.iteri (fun k p -> Hashtbl.replace index_of p k) net.ports;
  let s = N.Mat.make np np in
  Array.iteri
    (fun k p ->
      Hashtbl.iter
        (fun j g ->
          match Hashtbl.find_opt index_of j with
          | Some kj ->
            N.Mat.add_to s k kj (-.g);
            N.Mat.add_to s k k g
          | None -> ())
        net.adj.(p);
      ignore k)
    net.ports;
  s

let reduce_grid ?(config = Grid.default_config) ~tech ~die ports =
  if ports = [] then invalid_arg "Elimination.reduce_grid: no ports";
  let profile = tech.T.substrate in
  let snap_x, snap_y =
    List.fold_left
      (fun (xs, ys) (p : Port.t) ->
        List.fold_left
          (fun (xs, ys) (r : G.Rect.t) ->
            ( r.G.Rect.x0 :: r.G.Rect.x1 :: xs,
              r.G.Rect.y0 :: r.G.Rect.y1 :: ys ))
          (xs, ys) p.Port.region)
      ([], []) ports
  in
  let grid = Grid.build ~snap_x ~snap_y config ~die profile in
  let n = Grid.cell_count grid in
  let ports_arr = Array.of_list ports in
  let np = Array.length ports_arr in
  (* port nodes appended after the grid cells; branches go straight
     into the network — no intermediate edge list *)
  let net =
    of_conductances ~n:(n + np) ~ports:(Array.init np (fun p -> n + p)) []
  in
  Grid.iter_conductances grid (fun a b g -> add_branch net a b g);
  let um2 = T.micron *. T.micron in
  for iy = 0 to Grid.ny grid - 1 do
    for ix = 0 to Grid.nx grid - 1 do
      let cell_rect = Grid.surface_cell_rect grid ix iy in
      let cell = Grid.cell_index grid ix iy 0 in
      Array.iteri
        (fun p (port : Port.t) ->
          let overlap =
            List.fold_left
              (fun acc r ->
                match G.Rect.intersection r cell_rect with
                | Some o -> acc +. G.Rect.area o
                | None -> acc)
              0.0 port.Port.region
          in
          if overlap > 0.0 then
            add_branch net (n + p) cell
              (overlap *. um2 /. profile.T.contact_resistance))
        ports_arr
    done
  done;
  eliminate_internal net;
  let s = port_conductance net in
  let well_caps =
    Array.to_list ports_arr
    |> List.filter (fun (p : Port.t) -> p.Port.kind = Port.Well)
    |> List.map (fun (p : Port.t) ->
           let c =
             List.fold_left
               (fun acc r ->
                 acc
                 +. (G.Rect.area r *. um2 *. profile.T.nwell_cap_area)
                 +. (G.Rect.perimeter r *. T.micron
                    *. profile.T.nwell_cap_perimeter))
               0.0 p.Port.region
           in
           (p.Port.name, c))
  in
  Macromodel.make ~ports:ports_arr ~conductance:s
    ~well_capacitance:well_caps
