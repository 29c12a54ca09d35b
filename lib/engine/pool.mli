(** Fixed-size [Domain]-based worker pool for experiment-level
    parallelism.

    The paper's flow is embarrassingly parallel at the sweep level:
    every point of a frequency, corner or sizing sweep re-solves an
    independent merged model.  A pool spawns its worker domains once
    and reuses them across sweeps, so the spawn cost (~ms) is paid per
    process, not per sweep.  Work is distributed by atomic chunk
    claiming (no work stealing — sweep points are coarse enough that a
    shared counter balances them), and results are always gathered in
    input order, so parallel sweeps produce output bit-identical to
    the sequential path.

    Each task runs entirely on one domain and must only share
    immutable data with its siblings; solver scratch state (assembler
    slots, LU factors) is created per task and never crosses domains.

    A pool of width 1 spawns no domains at all: {!run} degrades to a
    plain sequential loop on the calling domain — the exact sequential
    path. *)

type t
(** A pool of worker domains.  The creating domain participates in
    every batch as worker 0, so a pool of width [j] spawns [j - 1]
    domains. *)

(** {1 Lifecycle} *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns a pool of [jobs] workers (default
    {!env_jobs}; clamped to [[1, max_jobs]]). *)

val jobs : t -> int
(** Width of the pool, including the calling domain. *)

val shutdown : t -> unit
(** Join every worker domain.  Idempotent; the pool degrades to the
    sequential path afterwards.  The {!default} pool is shut down
    automatically at exit. *)

(** {1 Running work} *)

val run : t -> n:int -> (int -> unit) -> unit
(** [run pool ~n f] evaluates [f i] for every [i] in [0 .. n-1], in
    parallel over the pool's workers, and returns when all [n] tasks
    have finished.  If any task raises, the first exception observed is
    re-raised on the caller after the batch drains.  A nested [run]
    from inside a task executes sequentially inline (pools do not
    recurse). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f xs] is [Array.map f xs] evaluated on the pool;
    results are positioned by input index, so the output is identical
    to the sequential map. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f xs] is [List.map f xs] evaluated on the pool, in
    input order. *)

val map_array_result : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Fault-tolerant {!map_array}: each task's exception is captured as
    [Error exn] in its own slot instead of aborting the batch, so a
    single bad point never discards its siblings' results.  Failures
    are counted in {!type-stats.field-tasks_failed}. *)

(** {1 Observability} *)

type stats = {
  jobs : int;  (** pool width, including the calling domain *)
  tasks_run : int;  (** tasks completed since the last reset *)
  tasks_failed : int;
      (** tasks whose exception was captured by {!map_array_result}
          since the last reset *)
  batches : int;  (** {!run} invocations since the last reset *)
  busy_seconds : float array;
      (** per-worker wall time spent inside tasks (index 0 is the
          calling domain) *)
  wall_seconds : float;
      (** wall time spent inside {!run} on the calling domain *)
}

val stats : t -> stats
(** Counters accumulated since {!create} or {!reset_stats}.  Safe to
    call between batches only (not from inside a task). *)

val reset_stats : t -> unit

val cpu_seconds : stats -> float
(** Total worker busy time — the "area under" {!field-busy_seconds}.
    [cpu_seconds s /. s.wall_seconds] is the effective parallelism. *)

val imbalance : stats -> float
(** Max over mean of the per-worker busy times: [1.0] is a perfectly
    balanced pool, [float jobs] a pool where one worker did
    everything.  [0] when the pool has done no work. *)

val pp_stats : Format.formatter -> stats -> unit
(** Render the counters as a one-line-per-worker summary. *)

(** {1 Sizing} *)

val max_jobs : int
(** Hard upper clamp on the pool width (64). *)

val jobs_of_string : ?default:int -> string -> int
(** Parse a job-count string ([SNOISE_JOBS], [--jobs]).  Garbage, zero
    and negative values fall back to [default] (itself defaulting to
    {!recommended_jobs}); values above {!max_jobs} clamp down to it. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to
    [[1, max_jobs]]. *)

val env_jobs : unit -> int
(** Pool width selected by the [SNOISE_JOBS] environment variable via
    {!jobs_of_string}, or {!recommended_jobs} when unset. *)

(** {1 The shared default pool} *)

val default : unit -> t
(** The process-wide pool, created on first use with {!env_jobs}
    workers and shut down at exit.  Every parallel entry point
    ([Snoise.Sweep], [Ac.sweep], [Noise.analyze], substrate
    extraction) runs on it unless given an explicit pool; a run that
    wants another width creates its own with {!create} and passes it
    along (the CLI's [--jobs] travels as [Snoise.Flow.options.pool]). *)
