module G = Sn_geometry
module N = Sn_numerics
module T = Sn_tech.Tech
module Pool = Sn_engine.Pool

let log_src = Logs.Src.create "sn.substrate" ~doc:"substrate extraction"

module Log = (val Logs.src_log log_src : Logs.LOG)

type solver = Mg_cg | Direct

type stats = {
  grid_cells : int;
  ports : int;
  tiles : int;
  interface_nodes : int;
  cg_iterations_total : int;
  mg_levels : int;
  assemble_seconds : float;
  reduce_seconds : float;
  stitch_seconds : float;
  cache_hits : int;
  cache_misses : int;
  elapsed_seconds : float;
}

(* atomic: concurrent extractions on pool workers (Sn_engine.Pool)
   must not tear the record; last writer wins *)
let stats_ref : stats option Atomic.t = Atomic.make None
let last_stats () = Atomic.get stats_ref

(* Overlap area (um^2) of a port with one surface cell. *)
let overlap_area (port : Port.t) cell_rect =
  List.fold_left
    (fun acc r ->
      match G.Rect.intersection r cell_rect with
      | Some o -> acc +. G.Rect.area o
      | None -> acc)
    0.0 port.Port.region

let well_capacitance (profile : T.substrate_profile) (port : Port.t) =
  let um2 = T.micron *. T.micron in
  List.fold_left
    (fun acc r ->
      acc
      +. (G.Rect.area r *. um2 *. profile.T.nwell_cap_area)
      +. (G.Rect.perimeter r *. T.micron *. profile.T.nwell_cap_perimeter))
    0.0 port.Port.region

(* ------------------------------------------------------------------ *)
(* unboxed growable branch buffers: one per tile, holding every
   conductance branch in tile-local numbering (interior cells first,
   then retained nodes).  The buffer is both the assembly input of the
   tile reduction and the content the cache key digests. *)

type branchbuf = {
  mutable bi : int array;
  mutable bj : int array;
  mutable bg : float array;
  mutable blen : int;
}

let bb_create () =
  { bi = Array.make 64 0; bj = Array.make 64 0; bg = Array.make 64 0.0;
    blen = 0 }

let bb_push b i j g =
  if b.blen = Array.length b.bi then begin
    let cap = 2 * b.blen in
    let bi = Array.make cap 0 and bj = Array.make cap 0 in
    let bg = Array.make cap 0.0 in
    Array.blit b.bi 0 bi 0 b.blen;
    Array.blit b.bj 0 bj 0 b.blen;
    Array.blit b.bg 0 bg 0 b.blen;
    b.bi <- bi;
    b.bj <- bj;
    b.bg <- bg
  end;
  b.bi.(b.blen) <- i;
  b.bj.(b.blen) <- j;
  b.bg.(b.blen) <- g;
  b.blen <- b.blen + 1

(* ------------------------------------------------------------------ *)
(* per-tile reduction state *)

type solve_state = {
  aii : N.Sparse.t;
  mg : N.Mg.t;
  brow_idx : int array array; (* sparse A_ri rows over interior, per retained *)
  brow_val : float array array;
  abb : float array; (* r x r retained block, row-major *)
}

type tile_work = {
  t_id : int;
  n_i : int;
  r : int;
  labels : string array;
  key : string option;
  mutable s : float array; (* reduced r x r tile matrix *)
  mutable from_cache : bool;
  mutable iters : int;
  mutable solve : solve_state option;
}

let cell_of_interior (tl : Tiling.tile) li =
  let w = tl.Tiling.ix1 - tl.Tiling.ix0 in
  let h = tl.Tiling.iy1 - tl.Tiling.iy0 in
  let iz = li / (w * h) in
  let rem = li mod (w * h) in
  (tl.Tiling.ix0 + (rem mod w), tl.Tiling.iy0 + (rem / w), iz)

let zero_diag_error tl li =
  let ix, iy, iz = cell_of_interior tl li in
  invalid_arg
    (Printf.sprintf
       "Extractor: grid cell (%d,%d,%d) has a zero diagonal — the cell is \
        disconnected from the conductance network"
       ix iy iz)

(* cache key material: everything the reduced tile matrix depends on —
   solver settings, the downstream reduction configuration tag, the
   interior box shape, retained labels and the full branch list (grid
   spacings and technology numbers are already folded into the branch
   conductances) *)
let key_material ~solver ~form ~tol ~dims:(w, h, d) ~n_i ~labels
    (bb : branchbuf) =
  let buf = Buffer.create (64 + (20 * bb.blen)) in
  Buffer.add_string buf "snoise-tile/";
  Buffer.add_string buf (string_of_int Cache.format_version);
  Buffer.add_char buf '/';
  Buffer.add_string buf form;
  (match solver with
   | Direct -> Buffer.add_string buf "/direct"
   | Mg_cg ->
     Buffer.add_string buf "/cg:";
     Buffer.add_int64_le buf (Int64.bits_of_float tol));
  List.iter
    (fun v ->
      Buffer.add_char buf '/';
      Buffer.add_string buf (string_of_int v))
    [ w; h; d; n_i; Array.length labels ];
  Array.iter
    (fun l ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf l)
    labels;
  Buffer.add_char buf '\x00';
  for k = 0 to bb.blen - 1 do
    Buffer.add_int32_le buf (Int32.of_int bb.bi.(k));
    Buffer.add_int32_le buf (Int32.of_int bb.bj.(k));
    Buffer.add_int64_le buf (Int64.bits_of_float bb.bg.(k))
  done;
  Buffer.contents buf

let extract ?(config = Grid.default_config) ?(grounded_backplane = false)
    ?(solver = Mg_cg) ?(tiles = (1, 1)) ?cache ?(tol = 1e-13) ?reduction
    ~tech ~die ports =
  if ports = [] then invalid_arg "Extractor.extract: no ports";
  (* artifact namespace tag: runs targeting a PRIMA-reduced flow must
     never share entries with exact runs, whatever the format version *)
  let form = match reduction with None -> "exact" | Some d -> d in
  List.iter
    (fun (p : Port.t) ->
      List.iter
        (fun r ->
          if not (G.Rect.intersects die r) then
            invalid_arg
              (Printf.sprintf "Extractor.extract: port %s outside die"
                 p.Port.name))
        p.Port.region)
    ports;
  let t0 = Unix.gettimeofday () in
  let cache = match cache with Some c -> Some c | None -> Cache.default () in
  let profile = tech.T.substrate in
  let surface_ports = ports in
  (* snap grid lines to every port rectangle edge so thin rings and
     gaps are resolved exactly rather than aliased *)
  let snap_x, snap_y =
    List.fold_left
      (fun (xs, ys) (p : Port.t) ->
        List.fold_left
          (fun (xs, ys) (r : G.Rect.t) ->
            ( r.G.Rect.x0 :: r.G.Rect.x1 :: xs,
              r.G.Rect.y0 :: r.G.Rect.y1 :: ys ))
          (xs, ys) p.Port.region)
      ([], []) surface_ports
  in
  let grid = Grid.build ~snap_x ~snap_y config ~die profile in
  let n = Grid.cell_count grid in
  let nx = Grid.nx grid and ny = Grid.ny grid and nz = Grid.nz grid in
  let ports_arr =
    if grounded_backplane then
      Array.of_list
        (ports @ [ Port.v ~name:"backplane" ~kind:Port.Resistive [ die ] ])
    else Array.of_list ports
  in
  let np = Array.length ports_arr in
  (match Tiling.degenerate ~tiles ~grid:(nx, ny) ~ports:np with
   | Some why -> Log.warn (fun m -> m "degenerate tiling: %s" why)
   | None -> ());
  let plan = Tiling.plan ~tiles ~nx ~ny ~nz in
  let n_tiles = Tiling.count plan in
  Log.info (fun m ->
      m "grid %dx%dx%d (%d cells), %d ports, %dx%d tiles" nx ny nz n np
        (fst (Tiling.shape plan))
        (snd (Tiling.shape plan)));
  (* --- assemble phase ------------------------------------------- *)
  (* interface cells per tile (ascending global index) and, per cell,
     its tile-local slot: interior index when >= 0, interface retained
     position encoded as -(pos) - 1 *)
  let iface = Array.init n_tiles (fun id -> Tiling.interface_cells plan id) in
  let interface_nodes = Array.fold_left (fun a c -> a + Array.length c) 0 iface in
  let nxy = nx * ny in
  let cell_slot = Array.make n 0 in
  Array.iteri
    (fun id (tl : Tiling.tile) ->
      for iz = 0 to nz - 1 do
        for iy = tl.Tiling.y0 to tl.Tiling.y1 - 1 do
          for ix = tl.Tiling.x0 to tl.Tiling.x1 - 1 do
            if Tiling.is_interior tl ~ix ~iy then
              cell_slot.((iz * nxy) + (iy * nx) + ix) <-
                Tiling.interior_index tl ~nz ~ix ~iy ~iz
          done
        done
      done;
      Array.iteri
        (fun pos cell -> cell_slot.(cell) <- -pos - 1)
        iface.(id))
    plan.Tiling.tiles;
  let tile_of_cell cell = plan.Tiling.tile_of.(cell mod nxy) in
  (* contact scan: port coverage and, per tile, which ports touch it *)
  let um2 = T.micron *. T.micron in
  let coverage = Array.make np 0.0 in
  let port_touches = Array.make_matrix n_tiles np false in
  let contacts = Array.init n_tiles (fun _ -> bb_create ()) in
  let add_contact cell p g =
    let t = tile_of_cell cell in
    port_touches.(t).(p) <- true;
    (* stash (cell, port) in the tile's contact buffer; rewritten to
       tile-local numbering once retained slots are known *)
    bb_push contacts.(t) cell p g;
    coverage.(p) <- coverage.(p) +. g
  in
  for iy = 0 to ny - 1 do
    for ix = 0 to nx - 1 do
      let cell_rect = Grid.surface_cell_rect grid ix iy in
      let cell = Grid.cell_index grid ix iy 0 in
      Array.iteri
        (fun p port ->
          let a_um2 = overlap_area port cell_rect in
          if a_um2 > 0.0 then
            add_contact cell p (a_um2 *. um2 /. profile.T.contact_resistance))
        ports_arr
    done
  done;
  (* metallized backside: the last port couples to every bottom cell *)
  if grounded_backplane then begin
    let p = np - 1 in
    let iz = nz - 1 in
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let cell = Grid.cell_index grid ix iy iz in
        let area = Grid.dx grid ix *. Grid.dy grid iy in
        add_contact cell p (area /. profile.T.contact_resistance)
      done
    done
  end;
  Array.iteri
    (fun p c ->
      if c <= 0.0 then
        invalid_arg
          (Printf.sprintf
             "Extractor.extract: port %s overlaps no surface cell"
             ports_arr.(p).Port.name))
    coverage;
  (* retained-node layout per tile: interface cells first (ascending
     global index), then the tile's ports (ascending port index) *)
  let tile_ports =
    Array.init n_tiles (fun t ->
        let acc = ref [] in
        for p = np - 1 downto 0 do
          if port_touches.(t).(p) then acc := p :: !acc
        done;
        Array.of_list !acc)
  in
  let port_slot = Array.make_matrix n_tiles np (-1) in
  Array.iteri
    (fun t ps ->
      let m_t = Array.length iface.(t) in
      Array.iteri (fun k p -> port_slot.(t).(p) <- m_t + k) ps)
    tile_ports;
  let interior_count =
    Array.map
      (fun (tl : Tiling.tile) ->
        let w, h, d = Tiling.interior_dims tl ~nz in
        w * h * d)
      plan.Tiling.tiles
  in
  let retained_count =
    Array.init n_tiles (fun t ->
        Array.length iface.(t) + Array.length tile_ports.(t))
  in
  (* branch buffers in tile-local numbering: interior index, or
     n_i + retained slot *)
  let branches = Array.init n_tiles (fun _ -> bb_create ()) in
  let local_of_cell t cell =
    let s = cell_slot.(cell) in
    if s >= 0 then s else interior_count.(t) + (-s - 1)
  in
  let stitch = bb_create () in
  Grid.iter_conductances grid (fun a b g ->
      let ta = tile_of_cell a and tb = tile_of_cell b in
      if ta = tb then
        bb_push branches.(ta) (local_of_cell ta a) (local_of_cell ta b) g
      else
        (* a lateral cut edge: both endpoints are interface cells *)
        bb_push stitch a b g);
  Array.iteri
    (fun t cb ->
      for k = 0 to cb.blen - 1 do
        let cell = cb.bi.(k) and p = cb.bj.(k) in
        bb_push branches.(t) (local_of_cell t cell)
          (interior_count.(t) + port_slot.(t).(p))
          cb.bg.(k)
      done)
    contacts;
  let labels =
    Array.init n_tiles (fun t ->
        Array.append
          (Array.map (fun c -> "c" ^ string_of_int c) iface.(t))
          (Array.map
             (fun p -> "p:" ^ ports_arr.(p).Port.name)
             tile_ports.(t)))
  in
  let t_assemble = Unix.gettimeofday () in
  (* --- reduce phase ---------------------------------------------- *)
  let pool = Pool.default () in
  let total_iters = Atomic.make 0 in
  let prepare_tile t_id =
    let tl = plan.Tiling.tiles.(t_id) in
    let n_i = interior_count.(t_id) in
    let r = retained_count.(t_id) in
    let bb = branches.(t_id) in
    let key =
      match cache with
      | None -> None
      | Some _ ->
        Some
          (Cache.hex_key
             (key_material ~solver ~form ~tol
                ~dims:(Tiling.interior_dims tl ~nz)
                ~n_i ~labels:labels.(t_id) bb))
    in
    let work =
      {
        t_id;
        n_i;
        r;
        labels = labels.(t_id);
        key;
        s = [||];
        from_cache = false;
        iters = 0;
        solve = None;
      }
    in
    let cached =
      match (cache, key) with
      | Some c, Some k -> (
        match Cache.lookup c ~key:k with
        | Some m
          when m.Cache.labels = labels.(t_id)
               && Array.length m.Cache.matrix = r * r
               && String.equal m.Cache.form form ->
          Some m
        | Some _ ->
          Log.warn (fun f ->
              f "cache entry %s does not match its key: recomputing" k);
          None
        | None -> None)
      | _ -> None
    in
    (match cached with
     | Some m ->
       work.s <- m.Cache.matrix;
       work.iters <- m.Cache.iterations;
       work.from_cache <- true
     | None -> (
       match solver with
       | Direct ->
         let edges = ref [] in
         for k = bb.blen - 1 downto 0 do
           edges := (bb.bi.(k), bb.bj.(k), bb.bg.(k)) :: !edges
         done;
         let net =
           Elimination.of_conductances ~n:(n_i + r)
             ~ports:(Array.init r (fun k -> n_i + k))
             !edges
         in
         Elimination.eliminate_internal net;
         let s = Elimination.port_conductance net in
         work.s <- Array.init (r * r) (fun k -> N.Mat.get s (k / r) (k mod r))
       | Mg_cg ->
         let builder = N.Sparse.builder (max n_i 1) (max n_i 1) in
         let brow = Array.init r (fun _ -> Hashtbl.create 16) in
         let abb = Array.make (r * r) 0.0 in
         for k = 0 to bb.blen - 1 do
           let u = bb.bi.(k) and v = bb.bj.(k) and g = bb.bg.(k) in
           let stamp_cross i rq =
             (* interior i against retained rq *)
             N.Sparse.add builder i i g;
             abb.((rq * r) + rq) <- abb.((rq * r) + rq) +. g;
             let tbl = brow.(rq) in
             let cur = Option.value ~default:0.0 (Hashtbl.find_opt tbl i) in
             Hashtbl.replace tbl i (cur -. g)
           in
           match (u < n_i, v < n_i) with
           | true, true ->
             N.Sparse.add builder u u g;
             N.Sparse.add builder v v g;
             N.Sparse.add builder u v (-.g);
             N.Sparse.add builder v u (-.g)
           | true, false -> stamp_cross u (v - n_i)
           | false, true -> stamp_cross v (u - n_i)
           | false, false ->
             let ru = u - n_i and rv = v - n_i in
             abb.((ru * r) + ru) <- abb.((ru * r) + ru) +. g;
             abb.((rv * r) + rv) <- abb.((rv * r) + rv) +. g;
             abb.((ru * r) + rv) <- abb.((ru * r) + rv) -. g;
             abb.((rv * r) + ru) <- abb.((rv * r) + ru) -. g
         done;
         if n_i = 0 then work.s <- abb
         else begin
           let aii = N.Sparse.finalize builder in
           let mg =
             try N.Mg.build ~dims:(Tiling.interior_dims tl ~nz) aii
             with N.Cg.Zero_diagonal li -> zero_diag_error tl li
           in
           let brow_idx = Array.make r [||] in
           let brow_val = Array.make r [||] in
           Array.iteri
             (fun rq tbl ->
               let entries =
                 Hashtbl.fold (fun i v acc -> (i, v) :: acc) tbl []
                 |> List.sort (fun (a, _) (b, _) -> compare a b)
               in
               brow_idx.(rq) <- Array.of_list (List.map fst entries);
               brow_val.(rq) <- Array.of_list (List.map snd entries))
             brow;
           work.s <- Array.make (r * r) 0.0;
           work.solve <- Some { aii; mg; brow_idx; brow_val; abb }
         end));
    work
  in
  let works = Pool.map_array pool prepare_tile (Array.init n_tiles Fun.id) in
  (* flatten the remaining Schur columns of every missed tile into one
     batch: tile- and port-level parallelism share the same pool *)
  let columns =
    Array.concat
      (Array.to_list
         (Array.map
            (fun w ->
              match w.solve with
              | None -> [||]
              | Some _ -> Array.init w.r (fun q -> (w, q)))
            works))
  in
  Pool.run pool ~n:(Array.length columns) (fun k ->
      let w, q = columns.(k) in
      let st = Option.get w.solve in
      let tl = plan.Tiling.tiles.(w.t_id) in
      let r = w.r in
      let idx_q = st.brow_idx.(q) and val_q = st.brow_val.(q) in
      let x =
        if Array.length idx_q = 0 then None
        else begin
          let rhs = Array.make w.n_i 0.0 in
          Array.iteri (fun e i -> rhs.(i) <- val_q.(e)) idx_q;
          let res =
            try N.Cg.solve ~tol ~precond:(N.Mg.apply st.mg) st.aii rhs
            with N.Cg.Zero_diagonal li -> zero_diag_error tl li
          in
          ignore
            (Atomic.fetch_and_add total_iters res.N.Cg.iterations);
          if not res.N.Cg.converged then raise (N.Cg.Not_converged res);
          Some res.N.Cg.solution
        end
      in
      for rr = 0 to r - 1 do
        let v =
          match x with
          | None -> st.abb.((rr * r) + q)
          | Some x ->
            let idx = st.brow_idx.(rr) and vl = st.brow_val.(rr) in
            let dot = ref 0.0 in
            Array.iteri (fun e i -> dot := !dot +. (vl.(e) *. x.(i))) idx;
            st.abb.((rr * r) + q) -. !dot
        in
        w.s.((rr * r) + q) <- v
      done);
  (* symmetrize the freshly computed tiles (iterative tolerance breaks
     exact symmetry) and persist them *)
  Array.iter
    (fun w ->
      if not w.from_cache then begin
        let r = w.r in
        if w.solve <> None then begin
          let s = w.s in
          for a = 0 to r - 1 do
            for b = a + 1 to r - 1 do
              let v = 0.5 *. (s.((a * r) + b) +. s.((b * r) + a)) in
              s.((a * r) + b) <- v;
              s.((b * r) + a) <- v
            done
          done
        end;
        match (cache, w.key) with
        | Some c, Some k ->
          Cache.store c ~key:k
            { Cache.labels = w.labels; matrix = w.s; iterations = w.iters;
              form }
        | _ -> ()
      end)
    works;
  let cache_hits =
    Array.fold_left (fun a w -> if w.from_cache then a + 1 else a) 0 works
  in
  let cache_misses =
    match cache with None -> 0 | Some _ -> n_tiles - cache_hits
  in
  let mg_levels =
    Array.fold_left
      (fun acc w ->
        match w.solve with
        | Some { mg; _ } -> max acc (N.Mg.levels mg)
        | None -> acc)
      0 works
  in
  let t_reduce = Unix.gettimeofday () in
  (* --- stitch phase ---------------------------------------------- *)
  (* stitched system over (all interface cells, then all ports) *)
  let stitch_of_cell = Hashtbl.create (max 16 interface_nodes) in
  let m_total = ref 0 in
  Array.iter
    (fun cells ->
      Array.iter
        (fun c ->
          Hashtbl.replace stitch_of_cell c !m_total;
          incr m_total)
        cells)
    iface;
  let m_total = !m_total in
  let dim = m_total + np in
  let k_mat = N.Mat.make dim dim in
  Array.iter
    (fun w ->
      let m_t = Array.length iface.(w.t_id) in
      let global =
        Array.init w.r (fun k ->
            if k < m_t then Hashtbl.find stitch_of_cell iface.(w.t_id).(k)
            else m_total + tile_ports.(w.t_id).(k - m_t))
      in
      for a = 0 to w.r - 1 do
        for b = 0 to w.r - 1 do
          N.Mat.add_to k_mat global.(a) global.(b) w.s.((a * w.r) + b)
        done
      done)
    works;
  for k = 0 to stitch.blen - 1 do
    let a = Hashtbl.find stitch_of_cell stitch.bi.(k) in
    let b = Hashtbl.find stitch_of_cell stitch.bj.(k) in
    let g = stitch.bg.(k) in
    N.Mat.add_to k_mat a a g;
    N.Mat.add_to k_mat b b g;
    N.Mat.add_to k_mat a b (-.g);
    N.Mat.add_to k_mat b a (-.g)
  done;
  let s =
    if m_total = 0 then
      N.Mat.init np np (fun p q ->
          N.Mat.get k_mat (m_total + p) (m_total + q))
    else begin
      (* dense Schur over the interface skeleton: the retained blocks
         are dense after the per-tile reduction anyway, and the
         skeleton is one cell line per cut — small next to the grid *)
      let kii =
        N.Mat.init m_total m_total (fun a b -> N.Mat.get k_mat a b)
      in
      let f = N.Lu.factor_mat kii in
      let xcols =
        Array.init np (fun q ->
            N.Lu.solve_factored f
              (Array.init m_total (fun i -> N.Mat.get k_mat i (m_total + q))))
      in
      N.Mat.init np np (fun p q ->
          let acc = ref (N.Mat.get k_mat (m_total + p) (m_total + q)) in
          let x = xcols.(q) in
          for i = 0 to m_total - 1 do
            acc := !acc -. (N.Mat.get k_mat (m_total + p) i *. x.(i))
          done;
          !acc)
    end
  in
  (* enforce exact symmetry lost to iterative tolerance *)
  let s =
    N.Mat.init np np (fun p q ->
        0.5 *. (N.Mat.get s p q +. N.Mat.get s q p))
  in
  let well_caps =
    Array.to_list ports_arr
    |> List.filter (fun (p : Port.t) -> p.Port.kind = Port.Well)
    |> List.map (fun (p : Port.t) ->
           (p.Port.name, well_capacitance profile p))
  in
  let t_end = Unix.gettimeofday () in
  Atomic.set stats_ref
    (Some
       {
         grid_cells = n;
         ports = np;
         tiles = n_tiles;
         interface_nodes = m_total;
         cg_iterations_total = Atomic.get total_iters;
         mg_levels;
         assemble_seconds = t_assemble -. t0;
         reduce_seconds = t_reduce -. t_assemble;
         stitch_seconds = t_end -. t_reduce;
         cache_hits;
         cache_misses;
         elapsed_seconds = t_end -. t0;
       });
  Log.info (fun m ->
      m
        "reduction done: %d CG iterations (%d MG levels), %d/%d cache \
         hits, %.2f s"
        (Atomic.get total_iters) mg_levels cache_hits n_tiles
        (t_end -. t0));
  Macromodel.make ~ports:ports_arr ~conductance:s ~well_capacitance:well_caps

(* The extraction window covers the substrate-relevant geometry
   (contacts, wells, probes) — not the metal routing and pads, whose
   bounding box would blow the grid cells up past the guard-ring
   feature size. *)
let substrate_bbox layout =
  let relevant (s : Sn_layout.Shape.t) =
    match s.Sn_layout.Shape.layer with
    | Sn_layout.Layer.Substrate_contact | Sn_layout.Layer.Nwell
    | Sn_layout.Layer.Diffusion | Sn_layout.Layer.Backgate_probe _ ->
      true
    | Sn_layout.Layer.Poly | Sn_layout.Layer.Metal _ | Sn_layout.Layer.Via _
    | Sn_layout.Layer.Pad ->
      false
  in
  match List.filter relevant (Sn_layout.Layout.flatten layout) with
  | [] -> invalid_arg "Extractor: layout has no substrate geometry"
  | s :: rest ->
    List.fold_left
      (fun acc sh -> G.Rect.union_bbox acc (Sn_layout.Shape.bbox sh))
      (Sn_layout.Shape.bbox s) rest

let extract_from_layout ?config ?(margin_fraction = 0.35) ?solver ?tiles
    ?cache ?tol ?reduction ~tech layout =
  let bbox = substrate_bbox layout in
  let margin =
    margin_fraction *. Float.max (G.Rect.width bbox) (G.Rect.height bbox)
  in
  let die = G.Rect.expand margin bbox in
  extract ?config ?solver ?tiles ?cache ?tol ?reduction ~tech ~die
    (Port.of_layout layout)
