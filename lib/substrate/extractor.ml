module G = Sn_geometry
module N = Sn_numerics
module T = Sn_tech.Tech
module Pool = Sn_engine.Pool

let log_src = Logs.Src.create "sn.substrate" ~doc:"substrate extraction"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The linear form S = A_bb - B X stops each Schur column's CG at a
   relative residual of 1e-13: its error is about 10^3 x tol.  A tile
   with at most 16 retained nodes takes the residual-corrected form
   S~ = A_bb - B X^ - X^T R, R = B^T - A_ii X^, whose error is
   quadratic in the solve error, so its columns stop at 1e-10, about a
   third fewer iterations.  The correction costs r^2 n_i multiply-adds
   and keeps the r solved columns of X^ (r n_i floats) until the last
   one is done: at r <= 16 that is about one V-cycle per column and no
   more memory than one four-lane solve holds.  Wider (interface-heavy,
   tiled) reductions keep the linear form. *)
let linear_tol = 1e-13
let corrected_max_retained = 16
let corrected_tol = 1e-10

type stats = {
  grid_cells : int;
  ports : int;
  tiles : int;
  interface_nodes : int;
  cg_iterations_total : int;
  mg_levels : int;
  assemble_seconds : float;
  setup_seconds : float;
  solve_seconds : float;
  reduce_seconds : float;
  stitch_seconds : float;
  cache_hits : int;
  cache_misses : int;
  elapsed_seconds : float;
  input_key_hit : bool;
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
(* unboxed growable branch buffers of (i, j, conductance) triples.  A
   tile's buffer holds every branch in tile-local numbering (interior
   cells first, then retained nodes); it is both the assembly input of
   the tile reduction and the content the cache key digests. *)

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
(* Stage 1, assemble: the grid, its tiling, the contact scan, and every
   branch routed to its tile or to the interface skeleton. *)

(* One tile's reduction problem.  The retained nodes are the tile's
   interface cells (ascending global index), then the ports touching
   it (ascending port index).  [branches] are numbered tile-locally:
   interior index, or [n_i] + retained slot. *)
type problem = {
  tile : Tiling.tile;
  dims : int * int * int; (* interior box, the multigrid dims *)
  n_i : int;
  interface : int; (* retained interface cells *)
  ports : int array; (* port of each retained slot after the interface *)
  labels : string array;
  branches : branchbuf;
}

(* The problems in tile order and the lateral cut edges, numbered over
   the skeleton: each tile's interface cells, tile after tile. *)
type assembly = {
  grid_cells : int;
  problems : problem array;
  skeleton : branchbuf;
  interface_nodes : int; (* skeleton size *)
}

(* Contact scan: one (surface cell, port, conductance) entry per port
   overlapping a surface cell, row-major over the surface, then the
   backplane's coupling to every bottom cell.  The backplane port's
   region is the whole die, but it touches the bottom only. *)
let contact_scan grid ~profile ~grounded_backplane ports_arr =
  let np = Array.length ports_arr in
  let n_surface = if grounded_backplane then np - 1 else np in
  let nx = Grid.nx grid and ny = Grid.ny grid in
  let um2 = T.micron *. T.micron in
  let contacts = bb_create () in
  for iy = 0 to ny - 1 do
    for ix = 0 to nx - 1 do
      let cell_rect = Grid.surface_cell_rect grid ix iy in
      let cell = Grid.cell_index grid ix iy 0 in
      for p = 0 to n_surface - 1 do
        let a_um2 = overlap_area ports_arr.(p) cell_rect in
        if a_um2 > 0.0 then
          bb_push contacts cell p
            (a_um2 *. um2 /. profile.T.contact_resistance)
      done
    done
  done;
  (* metallized backside: the last port couples to every bottom cell *)
  if grounded_backplane then begin
    let iz = Grid.nz grid - 1 in
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let area = Grid.dx grid ix *. Grid.dy grid iy in
        bb_push contacts (Grid.cell_index grid ix iy iz) (np - 1)
          (area /. profile.T.contact_resistance)
      done
    done
  end;
  let coverage = Array.make np 0.0 in
  for k = 0 to contacts.blen - 1 do
    coverage.(contacts.bj.(k)) <- coverage.(contacts.bj.(k)) +. contacts.bg.(k)
  done;
  Array.iteri
    (fun p c ->
      if c <= 0.0 then
        invalid_arg
          (Printf.sprintf "Extractor.extract: port %s overlaps no surface cell"
             ports_arr.(p).Port.name))
    coverage;
  contacts

let assemble ~config ~grounded_backplane ~tiles ~profile ~die ~ports_arr ports =
  let np = Array.length ports_arr in
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
      ([], []) ports
  in
  let grid = Grid.build ~snap_x ~snap_y config ~die profile in
  let n = Grid.cell_count grid in
  let nx = Grid.nx grid and ny = Grid.ny grid and nz = Grid.nz grid in
  (match Tiling.degenerate ~tiles ~grid:(nx, ny) ~ports:np with
   | Some why -> Log.warn (fun m -> m "degenerate tiling: %s" why)
   | None -> ());
  let plan = Tiling.plan ~tiles ~nx ~ny ~nz in
  let n_tiles = Tiling.count plan in
  Log.info (fun m ->
      m "grid %dx%dx%d (%d cells), %d ports, %dx%d tiles" nx ny nz n np
        (fst (Tiling.shape plan))
        (snd (Tiling.shape plan)));
  (* interface cells per tile and, per cell, its tile-local slot:
     interior index when >= 0, interface position encoded as
     -(pos) - 1 *)
  let iface = Array.init n_tiles (Tiling.interface_cells plan) in
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
      Array.iteri (fun pos cell -> cell_slot.(cell) <- -pos - 1) iface.(id))
    plan.Tiling.tiles;
  let tile_of_cell cell = plan.Tiling.tile_of.(cell mod nxy) in
  let contacts = contact_scan grid ~profile ~grounded_backplane ports_arr in
  (* each tile retains the ports that touch it, after its interface *)
  let port_slot = Array.make_matrix n_tiles np (-1) in
  for k = 0 to contacts.blen - 1 do
    port_slot.(tile_of_cell contacts.bi.(k)).(contacts.bj.(k)) <- 0
  done;
  let tile_ports =
    Array.mapi
      (fun t slots ->
        let ps = List.filter (fun p -> slots.(p) >= 0) (List.init np Fun.id) in
        List.iteri (fun k p -> slots.(p) <- Array.length iface.(t) + k) ps;
        Array.of_list ps)
      port_slot
  in
  let dims = Array.map (Tiling.interior_dims ~nz) plan.Tiling.tiles in
  let n_i = Array.map (fun (w, h, d) -> w * h * d) dims in
  let local_of_cell t cell =
    let s = cell_slot.(cell) in
    if s >= 0 then s else n_i.(t) + (-s - 1)
  in
  let offset = Array.make n_tiles 0 in
  for t = 1 to n_tiles - 1 do
    offset.(t) <- offset.(t - 1) + Array.length iface.(t - 1)
  done;
  let branches = Array.init n_tiles (fun _ -> bb_create ()) in
  let skeleton = bb_create () in
  Grid.iter_conductances grid (fun a b g ->
      let ta = tile_of_cell a and tb = tile_of_cell b in
      if ta = tb then
        bb_push branches.(ta) (local_of_cell ta a) (local_of_cell ta b) g
      else
        (* a lateral cut edge: both endpoints are interface cells *)
        bb_push skeleton
          (offset.(ta) - cell_slot.(a) - 1)
          (offset.(tb) - cell_slot.(b) - 1)
          g);
  for k = 0 to contacts.blen - 1 do
    let cell = contacts.bi.(k) and p = contacts.bj.(k) in
    let t = tile_of_cell cell in
    bb_push branches.(t) (local_of_cell t cell)
      (n_i.(t) + port_slot.(t).(p))
      contacts.bg.(k)
  done;
  let problem t tile =
    {
      tile;
      dims = dims.(t);
      n_i = n_i.(t);
      interface = Array.length iface.(t);
      ports = tile_ports.(t);
      labels =
        Array.append
          (Array.map (fun c -> "c" ^ string_of_int c) iface.(t))
          (Array.map
             (fun p -> "p:" ^ ports_arr.(p).Port.name)
             tile_ports.(t));
      branches = branches.(t);
    }
  in
  {
    grid_cells = n;
    problems = Array.mapi problem plan.Tiling.tiles;
    skeleton;
    interface_nodes = offset.(n_tiles - 1) + Array.length iface.(n_tiles - 1);
  }

let corrected (p : problem) =
  Array.length p.labels <= corrected_max_retained

let zero_diag_error (tl : Tiling.tile) li =
  let w = tl.Tiling.ix1 - tl.Tiling.ix0 in
  let h = tl.Tiling.iy1 - tl.Tiling.iy0 in
  let iz = li / (w * h) and rem = li mod (w * h) in
  let ix = tl.Tiling.ix0 + (rem mod w) and iy = tl.Tiling.iy0 + (rem / w) in
  invalid_arg
    (Printf.sprintf
       "Extractor: grid cell (%d,%d,%d) has a zero diagonal — the cell is \
        disconnected from the conductance network"
       ix iy iz)

(* cache key material: everything the reduced tile matrix depends on —
   the CG tolerance, the downstream reduction configuration tag, the
   interior box shape, retained labels and the full branch list (grid
   spacings and technology numbers are already folded into the branch
   conductances) *)
let key_material ~form (p : problem) =
  let w, h, d = p.dims and bb = p.branches and labels = p.labels in
  let buf = Buffer.create (64 + (20 * bb.blen)) in
  Buffer.add_string buf "snoise-tile/";
  Buffer.add_string buf (string_of_int Cache.format_version);
  Buffer.add_char buf '/';
  Buffer.add_string buf form;
  (* the Schur form's tag and tolerance bits are part of every stored
     key: changing them orphans warm cache directories *)
  if corrected p then begin
    Buffer.add_string buf "/cg+r:";
    Buffer.add_int64_le buf (Int64.bits_of_float corrected_tol)
  end
  else begin
    Buffer.add_string buf "/cg:";
    Buffer.add_int64_le buf (Int64.bits_of_float linear_tol)
  end;
  List.iter
    (fun v ->
      Buffer.add_char buf '/';
      Buffer.add_string buf (string_of_int v))
    [ w; h; d; p.n_i; Array.length labels ];
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

(* artifact namespace tag: runs targeting a PRIMA-reduced flow must
   never share entries with exact runs, whatever the format version *)
let form_of = function None -> "exact" | Some digest -> digest

(* input key material: every input the extraction depends on — the
   settings, the die, the substrate profile and the ports in order —
   serialized with exact float bits and length-prefixed strings.  The
   cache handle's index maps its digest to the content keys a cold run
   produced, so a warm run finds its tiles without building the grid. *)
let input_material ~config ~grounded_backplane ~tiles:(tx, ty) ~form
    ~(profile : T.substrate_profile) ~die ports =
  let buf = Buffer.create 512 in
  let int i = Buffer.add_int64_le buf (Int64.of_int i) in
  let float f = Buffer.add_int64_le buf (Int64.bits_of_float f) in
  let str s =
    int (String.length s);
    Buffer.add_string buf s
  in
  let rect (r : G.Rect.t) =
    List.iter float [ r.G.Rect.x0; r.G.Rect.y0; r.G.Rect.x1; r.G.Rect.y1 ]
  in
  Buffer.add_string buf "snoise-input/";
  int Cache.format_version;
  str form;
  str "cg";
  float linear_tol;
  str "cg+r";
  int corrected_max_retained;
  float corrected_tol;
  List.iter int [ tx; ty; config.Grid.nx; config.Grid.ny ];
  (match config.Grid.z_per_layer with
   | None -> int (-1)
   | Some zs ->
     int (List.length zs);
     List.iter int zs);
  int (Bool.to_int grounded_backplane);
  rect die;
  int (List.length profile.T.layers);
  List.iter
    (fun (l : T.substrate_layer) ->
      float l.T.depth;
      float l.T.resistivity)
    profile.T.layers;
  List.iter float
    [ profile.T.contact_resistance; profile.T.nwell_cap_area;
      profile.T.nwell_cap_perimeter ];
  int (List.length ports);
  List.iter
    (fun (p : Port.t) ->
      str p.Port.name;
      str (Port.kind_name p.Port.kind);
      int (List.length p.Port.region);
      List.iter rect p.Port.region)
    ports;
  Buffer.contents buf

let input_key ?(config = Grid.default_config) ?(grounded_backplane = false)
    ?(tiles = (1, 1)) ?reduction ~tech ~die ports =
  Cache.hex_key
    (input_material ~config ~grounded_backplane ~tiles ~form:(form_of reduction) ~profile:tech.T.substrate ~die ports)

(* a cached tile model fits the slot it is about to fill *)
let usable ~labels ~r ~form (m : Cache.tile_model) =
  m.Cache.labels = labels
  && Array.length m.Cache.matrix = r * r
  && String.equal m.Cache.form form

(* The recorded extraction for [input_key], served only when every
   tile it used still passes [Cache.lookup] and [usable].  Also returns
   the cache lookup for a cold fall-through, which never repeats a
   lookup made here. *)
let recorded_hit c ~input_key ~form =
  let looked_up = Hashtbl.create 8 in
  let served =
    match Cache.recall c ~input_key with
    | None -> None
    | Some r ->
      let fits =
        Array.map
          (fun (e : Cache.recorded_tile) ->
            let m = Cache.lookup c ~key:e.Cache.content_key in
            Hashtbl.replace looked_up e.Cache.content_key m;
            match m with
            | Some m -> usable ~labels:e.Cache.tile_labels ~r:e.Cache.dim ~form m
            | None -> false)
          r.Cache.tile_entries
      in
      if Array.for_all Fun.id fits then Some r else None
  in
  let lookup key =
    match Hashtbl.find_opt looked_up key with
    | Some found -> found
    | None -> Cache.lookup c ~key
  in
  (served, lookup)

(* ------------------------------------------------------------------ *)
(* Stage 2, reduce: each missed tile's problem to its Schur block
   S = A_bb - B A_ii^-1 B^T over the retained nodes, one MG-PCG lane
   per retained column, up to four lanes per solve. *)

type reduction = {
  problem : problem;
  aii : N.Sparse.t;
  mg : N.Mg.t option; (* None when the tile has no interior *)
  b : N.Sparse.t; (* A_ri: one row per retained node *)
  abb : float array; (* r x r retained block, row-major *)
  s : float array;
      (* the Schur block: starts as A_bb, which is already the column
         of a retained node with no interior neighbour; each solved
         column is overwritten *)
  iters : int array; (* CG iterations per column *)
  residuals : float array; (* each column's final relative residual *)
  tol : float; (* each column's CG tolerance *)
  corrected : bool; (* the residual-corrected form *)
  xhat : (float array * int) array;
      (* corrected form only: each solved column's block iterate and
         its lane in it; ([||], 0) for a column without a solve *)
}

(* a tile's Schur block and the CG iterations that produced it *)
type block = { matrix : float array; iterations : int }

(* A_ii, B and A_bb from the problem's branch list, and the multigrid
   hierarchy of A_ii; the CSR rows and every Galerkin product are
   built in row ranges on [par] *)
let setup ~par (p : problem) =
  let bb = p.branches in
  let aii, b, abb =
    N.Sparse.laplacian_blocks ~par ~interior:p.n_i
      ~retained:(Array.length p.labels) ~len:bb.blen bb.bi bb.bj bb.bg
  in
  let mg =
    if p.n_i = 0 then None
    else
      try Some (N.Mg.build ~par ~dims:p.dims aii)
      with N.Cg.Zero_diagonal li -> zero_diag_error p.tile li
  in
  let r = Array.length p.labels and corrected = corrected p in
  { problem = p; aii; mg; b; abb; s = Array.copy abb; iters = Array.make r 0;
    residuals = Array.make r 0.0;
    tol = (if corrected then corrected_tol else linear_tol);
    corrected; xhat = Array.make (if corrected then r else 0) ([||], 0) }

(* Schur columns [qs] (one to four) as the lanes of one MG-PCG solve:
   x_c = A_ii^-1 B^T e_q for q = qs.(c), then S(:, q) = A_bb(:, q) - B x_c,
   read from the solve's interleaved iterate.  Each lane's bits are
   those of its column solved alone. *)
let solve_block red mg qs =
  let p = red.problem in
  let r = Array.length p.labels and w = Array.length qs in
  let rp = N.Sparse.row_ptr red.b
  and ci = N.Sparse.col_idx red.b
  and bv = N.Sparse.values red.b in
  let rhs = Array.make (w * p.n_i) 0.0 in
  Array.iteri
    (fun c q ->
      for e = rp.(q) to rp.(q + 1) - 1 do
        rhs.((w * ci.(e)) + c) <- bv.(e)
      done)
    qs;
  let blk =
    try
      N.Cg.solve_lanes ~tol:red.tol ~precond:(N.Mg.precond_lanes mg ~lanes:w)
        ~lanes:w red.aii rhs
    with N.Cg.Zero_diagonal li -> zero_diag_error p.tile li
  in
  let x = blk.N.Cg.x in
  Array.iteri
    (fun c q ->
      if red.corrected then red.xhat.(q) <- (x, c);
      red.iters.(q) <- blk.N.Cg.lane_iterations.(c);
      red.residuals.(q) <- blk.N.Cg.lane_residual_norms.(c);
      if not blk.N.Cg.lane_converged.(c) then
        raise (N.Cg.Not_converged (N.Cg.lane blk c));
      for rr = 0 to r - 1 do
        let dot = ref 0.0 in
        for e = rp.(rr) to rp.(rr + 1) - 1 do
          dot := !dot +. (bv.(e) *. x.((w * ci.(e)) + c))
        done;
        red.s.((rr * r) + q) <- red.abb.((rr * r) + q) -. !dot
      done)
    qs

(* The residual correction of a solved block's columns [qs] in a
   corrected tile: S~(:, q) = S(:, q) - X^^T R_q with R_q = B^T e_q -
   A_ii x^_q, one lane matvec for the block and one dot of length n_i
   per solved column of X^.  D = A_ii X^ - B^T = -R is what is formed,
   and S~ = S + X^^T D, the same bits.  A column whose solve already
   reached the linear form's tolerance (a one-level hierarchy's direct
   solve) keeps its linear form: it is as accurate as the linear
   extractor's. *)
let correct_block red qs =
  let p = red.problem in
  let r = Array.length p.labels and n_i = p.n_i and w = Array.length qs in
  let needs q = red.residuals.(q) > linear_tol in
  if Array.exists needs qs then begin
    let rp = N.Sparse.row_ptr red.b
    and ci = N.Sparse.col_idx red.b
    and bv = N.Sparse.values red.b in
    let x, _ = red.xhat.(qs.(0)) in
    let d = Array.make (w * n_i) 0.0 in
    N.Sparse.mul_vec_into red.aii ~lanes:w x d;
    Array.iteri
      (fun c q ->
        for e = rp.(q) to rp.(q + 1) - 1 do
          let k = (w * ci.(e)) + c in
          d.(k) <- d.(k) -. bv.(e)
        done)
      qs;
    Array.iteri
      (fun c q ->
        if needs q then
          for a = 0 to r - 1 do
            let xa, ca = red.xhat.(a) in
            if Array.length xa > 0 then begin
              let wa = Array.length xa / n_i in
              let dot = ref 0.0 in
              for i = 0 to n_i - 1 do
                dot := !dot +. (xa.((wa * i) + ca) *. d.((w * i) + c))
              done;
              red.s.((a * r) + q) <- red.s.((a * r) + q) +. !dot
            end
          done)
      qs
  end

(* A tile's [c] columns that need a solve, as
   [max (ceil (c / 4)) (min c jobs)] contiguous blocks of near-equal
   size: at most four lanes each, and at least one block per worker
   when the tile has the columns for it. *)
let column_blocks ~jobs red mg =
  let rp = N.Sparse.row_ptr red.b in
  let qs =
    Array.of_seq
      (Seq.filter
         (fun q -> rp.(q) < rp.(q + 1))
         (Seq.init (Array.length red.iters) Fun.id))
  in
  let c = Array.length qs in
  let nb = Int.max ((c + 3) / 4) (Int.min c jobs) in
  Array.init nb (fun k ->
      let lo = k * c / nb and hi = (k + 1) * c / nb in
      (red, mg, Array.sub qs lo (hi - lo)))

(* Every problem's block, the deepest hierarchy built and the seconds
   the setup took.  With a tile for every worker, each tile's setup is
   one task; with fewer, the tiles are set up one after another, each
   phase of each in row ranges over the whole pool.  (A nested
   [Pool.run] executes inline, so the two cannot share one batch.)
   The column blocks of all tiles then run as one batch, so tile- and
   column-level parallelism share the pool. *)
let reduce_tiles pool problems =
  let t0 = Unix.gettimeofday () in
  let jobs = Pool.jobs pool in
  let reds =
    if Array.length problems >= jobs then
      Pool.map_array pool (setup ~par:N.Sparse.sequential) problems
    else
      let par =
        { N.Sparse.width = jobs; run = (fun n f -> Pool.run pool ~n f) }
      in
      Array.map (setup ~par) problems
  in
  let setup_seconds = Unix.gettimeofday () -. t0 in
  let blocks =
    Array.concat
      (Array.to_list
         (Array.map
            (fun red ->
              match red.mg with
              | None -> [||]
              | Some mg -> column_blocks ~jobs red mg)
            reds))
  in
  Pool.run pool ~n:(Array.length blocks) (fun k ->
      let red, mg, qs = blocks.(k) in
      solve_block red mg qs);
  (* every column of X^ is needed before any correction *)
  let corrections =
    Array.of_list
      (List.filter (fun (red, _, _) -> red.corrected)
         (Array.to_list blocks))
  in
  Pool.run pool ~n:(Array.length corrections) (fun k ->
      let red, _, qs = corrections.(k) in
      correct_block red qs);
  let block red =
    match red.mg with
    | None -> { matrix = red.abb; iterations = 0 }
    | Some _ ->
      (* the iterative tolerance breaks exact symmetry: restore it *)
      let s = red.s and r = Array.length red.iters in
      for a = 0 to r - 1 do
        for b = a + 1 to r - 1 do
          let v = 0.5 *. (s.((a * r) + b) +. s.((b * r) + a)) in
          s.((a * r) + b) <- v;
          s.((b * r) + a) <- v
        done
      done;
      { matrix = s; iterations = Array.fold_left ( + ) 0 red.iters }
  in
  let levels m red = max m (Option.fold ~none:0 ~some:N.Mg.levels red.mg) in
  (Array.map block reds, Array.fold_left levels 0 reds, setup_seconds)

(* ------------------------------------------------------------------ *)
(* Stage 3, stitch: the blocks scattered over (skeleton, ports) and the
   skeleton eliminated.  With K_ii = L L^T and Y = L^-1 K_ip, the port
   matrix is S = K_pp - Y^T Y, symmetric by construction.  K_ii is held
   in its envelope: a skeleton row couples only to its own tile's
   rows, from the tile's offset on, and to the rows its cut branches
   reach. *)

let stitch ~np (a : assembly) blocks =
  let m = a.interface_nodes in
  let first = Array.make m 0 and o = ref 0 in
  Array.iter
    (fun (p : problem) ->
      Array.fill first !o p.interface !o;
      o := !o + p.interface)
    a.problems;
  let sk = a.skeleton in
  for k = 0 to sk.blen - 1 do
    let i = max sk.bi.(k) sk.bj.(k) and j = min sk.bi.(k) sk.bj.(k) in
    first.(i) <- min first.(i) j
  done;
  let env = N.Chol.envelope first in
  let kii = Array.make (N.Chol.size env) 0.0 in
  let kip = Array.init np (fun _ -> Array.make m 0.0) in
  let s = Array.make (np * np) 0.0 in
  let add_ii i j v =
    let k = N.Chol.index env (max i j) (min i j) in
    kii.(k) <- kii.(k) +. v
  in
  let o = ref 0 in
  Array.iteri
    (fun t (p : problem) ->
      let blk = blocks.(t) and r = Array.length p.labels in
      let m_t = p.interface in
      (* the lower triangle of each symmetric block *)
      for x = 0 to r - 1 do
        for y = 0 to x do
          let v = blk.((x * r) + y) in
          if x < m_t then add_ii (!o + x) (!o + y) v
          else if y < m_t then
            let col = kip.(p.ports.(x - m_t)) in
            col.(!o + y) <- col.(!o + y) +. v
          else begin
            let pp = (p.ports.(x - m_t) * np) + p.ports.(y - m_t) in
            s.(pp) <- s.(pp) +. v
          end
        done
      done;
      o := !o + m_t)
    a.problems;
  for k = 0 to sk.blen - 1 do
    let i = sk.bi.(k) and j = sk.bj.(k) and g = sk.bg.(k) in
    add_ii i i g;
    add_ii j j g;
    add_ii i j (-.g)
  done;
  N.Chol.factor env kii;
  Array.iter (N.Chol.forward env kii ~lanes:1) kip;
  for p = 0 to np - 1 do
    for q = 0 to p do
      let yp = kip.(p) and yq = kip.(q) in
      let acc = ref s.((p * np) + q) in
      for i = 0 to m - 1 do
        acc := !acc -. (yp.(i) *. yq.(i))
      done;
      s.((p * np) + q) <- !acc;
      s.((q * np) + p) <- !acc
    done
  done;
  s

(* The full path: assemble the problems, find each tile by content key
   or reduce it, stitch, and record the result in the cache handle's
   input-key index.  [lookup] answers for the cache, reusing lookups
   this extraction already made. *)
let extract_cold ~config ~grounded_backplane ~tiles ~cache ~form ~pool
    ~profile ~die ~ports_arr ~lookup ~input_key ~t0 ports =
  let np = Array.length ports_arr in
  let a =
    assemble ~config ~grounded_backplane ~tiles ~profile ~die ~ports_arr ports
  in
  let t_assemble = Unix.gettimeofday () in
  let n_tiles = Array.length a.problems in
  let find (p : problem) =
    match cache with
    | None -> (None, None)
    | Some _ -> (
      let k = Cache.hex_key (key_material ~form p) in
      let r = Array.length p.labels in
      match lookup k with
      | Some m when usable ~labels:p.labels ~r ~form m ->
        (Some k, Some m.Cache.matrix)
      | Some _ ->
        Log.warn (fun f ->
            f "cache entry %s does not match its key: recomputing" k);
        (Some k, None)
      | None -> (Some k, None))
  in
  let found = Pool.map_array pool find a.problems in
  let missed =
    List.filter (fun t -> snd found.(t) = None) (List.init n_tiles Fun.id)
    |> Array.of_list
  in
  let fresh, mg_levels, setup_seconds =
    reduce_tiles pool (Array.map (fun t -> a.problems.(t)) missed)
  in
  let blocks = Array.map (fun (_, m) -> Option.value m ~default:[||]) found in
  Array.iteri
    (fun j t ->
      let p = a.problems.(t) in
      blocks.(t) <- fresh.(j).matrix;
      match (cache, fst found.(t)) with
      | Some c, Some k ->
        Cache.store c ~key:k
          { Cache.labels = p.labels; matrix = fresh.(j).matrix;
            iterations = fresh.(j).iterations; form }
      | _ -> ())
    missed;
  let cache_hits = n_tiles - Array.length missed in
  let t_reduce = Unix.gettimeofday () in
  let s = stitch ~np a blocks in
  (match (cache, input_key) with
   | Some c, Some input_key ->
     Cache.remember c ~input_key
       {
         Cache.tile_entries =
           Array.mapi
             (fun t (p : problem) ->
               { Cache.content_key = Option.get (fst found.(t));
                 tile_labels = p.labels; dim = Array.length p.labels })
             a.problems;
         conductance = s;
         grid_cells = a.grid_cells;
         interface_nodes = a.interface_nodes;
       }
   | _ -> ());
  let t_end = Unix.gettimeofday () in
  ( N.Mat.of_flat ~rows:np ~cols:np s,
    {
      grid_cells = a.grid_cells;
      ports = np;
      tiles = n_tiles;
      interface_nodes = a.interface_nodes;
      cg_iterations_total =
        Array.fold_left (fun acc b -> acc + b.iterations) 0 fresh;
      mg_levels;
      assemble_seconds = t_assemble -. t0;
      setup_seconds;
      solve_seconds = t_reduce -. t_assemble -. setup_seconds;
      reduce_seconds = t_reduce -. t_assemble;
      stitch_seconds = t_end -. t_reduce;
      cache_hits;
      cache_misses =
        (match cache with None -> 0 | Some _ -> Array.length missed);
      elapsed_seconds = t_end -. t0;
      input_key_hit = false;
    } )

let extract ?(config = Grid.default_config) ?(grounded_backplane = false)
    ?(tiles = (1, 1)) ?cache ?reduction ?(pool = Pool.default ()) ~tech ~die
    ports =
  if ports = [] then invalid_arg "Extractor.extract: no ports";
  let form = form_of reduction in
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
  let ports_arr =
    if grounded_backplane then
      Array.of_list
        (ports @ [ Port.v ~name:"backplane" ~kind:Port.Resistive [ die ] ])
    else Array.of_list ports
  in
  let np = Array.length ports_arr in
  let input_key =
    Option.map
      (fun _ ->
        Cache.hex_key
          (input_material ~config ~grounded_backplane ~tiles ~form ~profile
             ~die ports))
      cache
  in
  let served, lookup =
    match (cache, input_key) with
    | Some c, Some input_key -> recorded_hit c ~input_key ~form
    | _ -> (None, fun _ -> None)
  in
  let conductance, stats =
    match served with
    | Some r ->
      (* warm: the recorded matrix, no grid *)
      let n_tiles = Array.length r.Cache.tile_entries in
      let elapsed = Unix.gettimeofday () -. t0 in
      ( N.Mat.of_flat ~rows:np ~cols:np r.Cache.conductance,
        {
          grid_cells = r.Cache.grid_cells;
          ports = np;
          tiles = n_tiles;
          interface_nodes = r.Cache.interface_nodes;
          cg_iterations_total = 0;
          mg_levels = 0;
          assemble_seconds = 0.0;
          setup_seconds = 0.0;
          solve_seconds = elapsed;
          reduce_seconds = elapsed;
          stitch_seconds = 0.0;
          cache_hits = n_tiles;
          cache_misses = 0;
          elapsed_seconds = elapsed;
          input_key_hit = true;
        } )
    | None ->
      extract_cold ~config ~grounded_backplane ~tiles ~cache ~form ~pool
        ~profile ~die ~ports_arr ~lookup ~input_key ~t0 ports
  in
  Atomic.set stats_ref (Some stats);
  Log.info (fun m ->
      m
        "reduction done: %d CG iterations (%d MG levels), %d/%d cache \
         hits%s, %.2f s"
        stats.cg_iterations_total stats.mg_levels stats.cache_hits stats.tiles
        (if stats.input_key_hit then " (input key)" else "")
        stats.elapsed_seconds);
  let well_caps =
    Array.to_list ports_arr
    |> List.filter (fun (p : Port.t) -> p.Port.kind = Port.Well)
    |> List.map (fun (p : Port.t) -> (p.Port.name, well_capacitance profile p))
  in
  Macromodel.make ~ports:ports_arr ~conductance ~well_capacitance:well_caps

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

let extract_from_layout ?config ?tiles ?reduction ?pool ~tech layout =
  let bbox = substrate_bbox layout in
  let margin = 0.35 *. Float.max (G.Rect.width bbox) (G.Rect.height bbox) in
  let die = G.Rect.expand margin bbox in
  extract ?config ?tiles ?reduction ?pool ~tech ~die
    (Port.of_layout layout)
