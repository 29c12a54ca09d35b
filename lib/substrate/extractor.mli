(** Substrate macromodel extraction (the SubstrateStorm substitute).

    Assembles the FDM conductance Laplacian of the discretized bulk,
    couples each port to the surface cells it overlaps through the
    technology's specific contact resistance, and eliminates every
    grid node with a Schur complement:

    {v S = G_pp - G_pi G_ii^-1 G_ip v}

    Each Schur column is one lane of a conjugate-gradient solve
    preconditioned by a geometric multigrid V-cycle ({!Sn_numerics.Mg}),
    run to a fixed relative residual.  A tile with more than 16
    retained nodes takes the linear form [S = A_bb - B X] at [1e-13],
    whose error is about [10{^3}] times the tolerance.  A tile with at
    most 16 (the untiled paper flows keep 4 and 8 ports) takes the
    residual-corrected form [S~ = A_bb - B X^ - X^{^T} R] with
    [R = B{^T} - A_ii X^] recomputed once per column: its error is
    quadratic in the solve error, so its columns stop at [1e-10], about
    a third fewer CG iterations at the linear form's accuracy.  A
    column whose solve already met [1e-13] keeps its linear form.
    Wider tiles keep the linear form because the correction costs
    [r{^2} n_i] multiply-adds and holds [r n_i] floats of [X^].  A
    tile's columns are
    solved up to four abreast ({!Sn_numerics.Cg.solve_lanes}), so every
    decoded matrix entry serves each column of the block, and each
    lane's bits are those of its column solved alone.  That keeps the
    cost per column far
    below a direct factorization as the grid grows (the hierarchy
    coarsens only laterally, so the layered profile's anisotropy
    leaves the iteration count flat — the bench records the per-size
    counts).  The exact star-mesh {!Elimination} is the small-grid
    oracle the tests compare against.

    The reduction optionally runs {e tiled} (hierarchical, nested
    Schur: reduce each lateral tile onto its interface and local ports
    independently on the worker pool, then stitch the interface
    skeleton — see {!Tiling}) and consults a content-addressed {!Cache}
    so unchanged tiles are never reduced twice.

    The cache is keyed at two levels.  Each tile's content key digests
    its assembled branch list, so finding it means building the grid.
    In front of it, {!input_key} digests the extraction inputs; the
    cache handle's in-memory index maps it to what the cold run
    produced (each tile's content key, labels and size, the stitched
    port matrix and the grid summary).  A repeat extraction on the same
    handle therefore re-checks its tiles with {!Cache.lookup} and
    returns the recorded matrix without building the grid.  The index
    is not persisted: a fresh handle, even on a warm directory, builds
    the grid once and records. *)

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
      (** deepest multigrid hierarchy built; [0] unless at least one
          tile with interior cells was reduced *)
  assemble_seconds : float;  (** grid build, contact scan, bucketing *)
  setup_seconds : float;
      (** reduce stage, part one: each missed tile's A_ii, B and A_bb
          and its multigrid hierarchy *)
  solve_seconds : float;
      (** reduce stage, part two: the tile-cache lookups and stores and
          the Schur columns' MG-PCG solves *)
  reduce_seconds : float;
      (** the whole per-tile Schur reduction (or cache):
          [setup_seconds +. solve_seconds] *)
  stitch_seconds : float;  (** interface-skeleton elimination *)
  cache_hits : int;
  cache_misses : int;
  elapsed_seconds : float;
  input_key_hit : bool;
      (** served from the cache handle's input-key index: no grid was
          built, [cache_hits = tiles], [cg_iterations_total = 0], and
          [grid_cells], [tiles] and [interface_nodes] are the recording
          cold run's; the key, lookups and the matrix copy count as
          [solve_seconds] and [reduce_seconds] *)
}

val last_stats : unit -> stats option
(** Statistics of the most recent {!extract} call (for the runtime
    report and the benches).  Stored atomically, so concurrent
    extractions on pool workers never expose a torn record. *)

val input_key :
  ?config:Grid.config ->
  ?grounded_backplane:bool ->
  ?tiles:int * int ->
  ?reduction:string ->
  tech:Sn_tech.Tech.t ->
  die:Sn_geometry.Rect.t ->
  Port.t list ->
  string
(** [input_key ... ports] is the hex digest {!extract} looks up in the
    cache handle's index, under the same defaults.  It covers
    {!Cache.format_version}, the [reduction] tag, tags naming the CG
    solve's two Schur forms, their tolerances (exact bits) and the
    retained-node bound between them, [tiles], every
    {!Grid.config} field, [grounded_backplane], the die, the whole
    substrate profile of [tech] (each layer's depth and resistivity,
    the contact resistance and both n-well capacitance coefficients)
    and the ports in order (name, kind, every region rectangle).  The pool is not part of it:
    results do not depend on the worker count. *)

val extract :
  ?config:Grid.config ->
  ?grounded_backplane:bool ->
  ?tiles:int * int ->
  ?cache:Cache.t ->
  ?reduction:string ->
  ?pool:Sn_engine.Pool.t ->
  tech:Sn_tech.Tech.t ->
  die:Sn_geometry.Rect.t ->
  Port.t list ->
  Macromodel.t
(** [extract ?config ?grounded_backplane ?tiles ?cache ?reduction ?pool
    ~tech ~die ports] computes the macromodel.

    With [grounded_backplane] (default [false]) the die backside is
    metallized: an extra resistive port named ["backplane"] couples to
    every bottom grid cell — ground it in the merged model to study a
    conductively attached die.  [die] is in micrometers.

    [tiles] (default [(1, 1)], the whole-die reduction) selects the
    hierarchical tiled path; every tiling agrees with the untiled
    result to the CG tolerance.  [cache] overrides the process default
    ({!Cache.default}); pass a handle explicitly to isolate benches and
    tests.

    With a cache, a repeat of a recorded extraction (same
    {!input_key}, same handle) is served from the handle's index when
    every recorded tile still passes {!Cache.lookup} with its labels,
    size and form; the conductances and well capacitances are
    byte-identical to the cold run's, and [input_key_hit] is set.  If
    any tile misses (deleted, corrupted, stale), the extraction falls
    through to the full path, reusing the lookups already made, and
    only the missing tiles are recomputed.

    [reduction] tags the cached artifacts with the downstream
    model-order-reduction configuration (a
    [Snoise.Reduced_model.config_digest] string); omitted means the
    exact flow.  The tag is folded into every tile cache key {e and}
    recorded in each stored entry, so reduced and exact runs keep
    disjoint cache namespaces — a mismatched or corrupted entry is a
    fail-soft miss, never a wrong answer.

    Each tile's cache key names the Schur form it took and that form's
    tolerance bits, so a tile above the retained-node bound keeps the
    key the linear-only extractor gave it.

    Port columns (and tiles) are reduced in parallel on [pool]
    (default {!Sn_engine.Pool.default}).  A tile's [c] columns that
    need a solve form [max (ceil (c / 4)) (min c jobs)] contiguous
    blocks of near-equal size, one lockstep solve each; the block
    shapes follow the worker count, but every lane is bit-identical to
    its one-column solve, so results, and the iteration counts stored
    with cached tiles, are byte-identical regardless of worker count.

    Raises [Invalid_argument] when [ports] is empty, when a port lies
    outside the die, when a grid cell is disconnected (zero diagonal —
    the error names the offending cell), or on grid configuration
    errors; fails with [Sn_numerics.Cg.Not_converged] if an
    elimination solve stalls. *)

val extract_from_layout :
  ?config:Grid.config ->
  ?tiles:int * int ->
  ?reduction:string ->
  ?pool:Sn_engine.Pool.t ->
  tech:Sn_tech.Tech.t ->
  Sn_layout.Layout.t ->
  Macromodel.t
(** [extract_from_layout ?config ?tiles ?reduction ?pool ~tech layout]
    derives the extraction window from the substrate-relevant shapes
    (contacts, wells, probes — metal routing and pads are excluded so
    they cannot blow up the cell size), padded on each side by 0.35 of
    the larger extent so bulk spreading has room, then extracts with
    ports from {!Port.of_layout} through the default tile cache.  The
    tiling, reduction and pool options are forwarded to {!extract}. *)
