(** Substrate macromodel extraction (the SubstrateStorm substitute).

    Assembles the FDM conductance Laplacian of the discretized bulk,
    couples each port to the surface cells it overlaps through the
    technology's specific contact resistance, and eliminates every
    grid node with a Schur complement:

    {v S = G_pp - G_pi G_ii^-1 G_ip v}

    Two solvers compute the elimination ({!solver}); the default
    multigrid-preconditioned CG keeps the cost per Schur column far
    below a direct factorization as the grid grows (the hierarchy
    coarsens only laterally, so the layered profile's anisotropy
    leaves the iteration count flat — the bench records the per-size
    counts).  The reduction optionally runs {e tiled}
    (hierarchical, nested Schur: reduce each lateral tile onto its
    interface and local ports independently on the worker pool, then
    stitch the interface skeleton — see {!Tiling}) and consults a
    content-addressed {!Cache} so unchanged tiles are never reduced
    twice. *)

(** How the interior Schur columns are computed. *)
type solver =
  | Mg_cg
      (** conjugate gradients preconditioned by a geometric multigrid
          V-cycle ({!Sn_numerics.Mg}) — the default, and the only
          choice that scales to million-cell grids *)
  | Direct
      (** exact star-mesh elimination per tile
          ({!Elimination}) — the small-grid oracle *)

(** Counters and phase timings of one extraction. *)
type stats = {
  grid_cells : int;
  ports : int;
  tiles : int;  (** tiles actually used (after clamping) *)
  interface_nodes : int;
      (** total interface cells stitched; [0] for the untiled path *)
  cg_iterations_total : int;
      (** CG iterations actually run — [0] on a fully warm cache *)
  mg_levels : int;
      (** deepest multigrid hierarchy built; [0] unless {!Mg_cg}
          reduced at least one tile *)
  assemble_seconds : float;  (** grid build, contact scan, bucketing *)
  reduce_seconds : float;  (** per-tile Schur reduction (or cache) *)
  stitch_seconds : float;  (** interface-skeleton elimination *)
  cache_hits : int;
  cache_misses : int;
  elapsed_seconds : float;
}

val last_stats : unit -> stats option
(** Statistics of the most recent {!extract} call (for the runtime
    report and the benches).  Stored atomically, so concurrent
    extractions on pool workers never expose a torn record. *)

val extract :
  ?config:Grid.config ->
  ?grounded_backplane:bool ->
  ?solver:solver ->
  ?tiles:int * int ->
  ?cache:Cache.t ->
  ?tol:float ->
  ?reduction:string ->
  tech:Sn_tech.Tech.t ->
  die:Sn_geometry.Rect.t ->
  Port.t list ->
  Macromodel.t
(** [extract ?config ?grounded_backplane ?solver ?tiles ?cache ?tol
    ?reduction ~tech ~die ports] computes the macromodel.

    With [grounded_backplane] (default [false]) the die backside is
    metallized: an extra resistive port named ["backplane"] couples to
    every bottom grid cell — ground it in the merged model to study a
    conductively attached die.  [die] is in micrometers.

    [solver] defaults to {!Mg_cg}.  [tiles] (default [(1, 1)], the
    whole-die reduction) selects the hierarchical tiled path; all
    solver/tile combinations agree to the iterative tolerance [tol]
    (default [1e-13], relative residual per Schur column).  [cache]
    overrides the process default ({!Cache.default}); pass a handle
    explicitly to isolate benches and tests.

    [reduction] tags the cached artifacts with the downstream
    model-order-reduction configuration (a
    [Snoise.Reduced_model.config_digest] string); omitted means the
    exact flow.  The tag is folded into every tile cache key {e and}
    recorded in each stored entry, so reduced and exact runs keep
    disjoint cache namespaces — a mismatched or corrupted entry is a
    fail-soft miss, never a wrong answer.

    Port columns (and tiles) are reduced in parallel on
    {!Sn_engine.Pool.default}; results are byte-identical regardless
    of worker count.

    Raises [Invalid_argument] when [ports] is empty, when a port lies
    outside the die, when a grid cell is disconnected (zero diagonal —
    the error names the offending cell), or on grid configuration
    errors; fails with [Sn_numerics.Cg.Not_converged] if an
    elimination solve stalls. *)

val extract_from_layout :
  ?config:Grid.config ->
  ?margin_fraction:float ->
  ?solver:solver ->
  ?tiles:int * int ->
  ?cache:Cache.t ->
  ?tol:float ->
  ?reduction:string ->
  tech:Sn_tech.Tech.t ->
  Sn_layout.Layout.t ->
  Macromodel.t
(** [extract_from_layout ?config ?margin_fraction ?solver ?tiles
    ?cache ?tol ?reduction ~tech layout] derives the extraction window from the
    substrate-relevant shapes (contacts, wells, probes — metal routing
    and pads are excluded so they cannot blow up the cell size),
    padded on each side by [margin_fraction] (default 0.35) of the
    larger extent so bulk spreading has room, then extracts with ports
    from {!Port.of_layout}.  The solver, tiling, cache and reduction
    options are forwarded to {!extract}. *)
