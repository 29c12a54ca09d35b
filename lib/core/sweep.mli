(** Domain-parallel sweep combinators.

    Every experiment of the paper's evaluation is a sweep: frequencies
    (Figs. 7-10), process corners, guard-ring and ground-wire sizing
    studies all re-solve independent merged models.  The combinators
    here fan those points out over the shared {!Sn_engine.Pool} and
    gather the results in input order, so a parallel sweep is
    bit-identical to the sequential one — the pool width only changes
    wall-clock time, never numbers.

    Pool width resolution, in priority order: the [?pool] argument
    (the flows pass [options.pool] — {!Flow.options}, set from the
    CLI's [--jobs]), the [SNOISE_JOBS] environment variable,
    [Domain.recommended_domain_count ()].  Width 1 runs the exact
    sequential path (no domains are spawned). *)

val map_points : ?pool:Sn_engine.Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_points f points] is [List.map f points] with the points
    evaluated in parallel on the pool (default: the shared pool) and
    the results in input order.  [f] must not share mutable state
    between points.  The first exception raised by any point is
    re-raised after the sweep drains. *)

val map_array : ?pool:Sn_engine.Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map_points}; results are positioned by input
    index. *)

val grid :
  ?pool:Sn_engine.Pool.t ->
  ('a -> 'b -> 'c) -> 'a list -> 'b list -> ('a * 'b * 'c) list
(** [grid f xs ys] evaluates [f x y] for the full cartesian product,
    flattened row-major ([xs] outer, [ys] inner) so every grid cell is
    an independent pool task.  Returns [(x, y, f x y)] triples in
    row-major order. *)

val corners :
  ?pool:Sn_engine.Pool.t -> ('c -> 'r) -> 'c list -> 'r list
(** [corners f cs] runs one independent flow evaluation per process
    corner (or any other scenario list) in parallel — {!map_points}
    under a name that reads like the sign-off loop it implements. *)

(** {1 Fault-tolerant sweeps}

    The plain combinators abort the whole sweep on the first
    exception.  The [_result] variants instead capture each point's
    failure, retry the point once sequentially on the calling domain
    (with the full DC rescue ladder available), and return a
    per-point [result] — one permanently bad point costs one [Error]
    entry, never the other points' work. *)

val map_points_result :
  ?pool:Sn_engine.Pool.t ->
  ('a -> 'b) -> 'a list -> ('b, Sn_engine.Diag.t) result list
(** [map_points_result f points] is {!map_points} with per-point
    capture and one sequential retry; results stay in input order.  A
    non-{!Sn_engine.Diag.Error} exception is wrapped as
    {!Sn_engine.Diag.Bad_input}. *)

val map_array_result :
  ?pool:Sn_engine.Pool.t ->
  ('a -> 'b) -> 'a array -> ('b, Sn_engine.Diag.t) result array
(** Array analogue of {!map_points_result}. *)

val grid_result :
  ?pool:Sn_engine.Pool.t ->
  ('a -> 'b -> 'c) -> 'a list -> 'b list ->
  ('a * 'b * ('c, Sn_engine.Diag.t) result) list
(** {!grid} with per-cell capture and retry: the coordinates of a
    failed cell survive alongside its diagnostic. *)
