(** The serving core: a bounded request queue with per-client quotas,
    a coalescing scheduler, and the verb handlers — everything
    [snoise serve] does except the sockets.

    Keeping the socket layer out makes the whole protocol unit-testable
    in-process: {!submit} accepts one raw request line exactly as it
    would arrive on the wire, {!drain} executes everything queued and
    returns the reply objects in submission order, and the bench
    drives sustained workloads through the same two calls the real
    server uses.

    {b Batching.}  {!drain} coalesces compatible queued requests —
    same compiled plan (deck digest + overrides) and same node/output
    set, differing only in sweep frequencies — into a single
    pool dispatch over the union of their points, then splits the
    results back per request.  Because a cached plan's pivot order is
    fixed by its first factorization, batched replies are
    byte-identical to the same requests served one by one.  Every
    queued request, alone or coalesced, goes through the same
    dispatch path: a lone request is simply a group of one.

    {b Backpressure.}  A full queue answers [busy] (with a
    [retry_after_ms] hint), a client exceeding its in-queue quota
    answers [quota-exceeded]; neither disconnects, and neither is ever
    silently dropped.  Crossing the memory watermark sheds LRU cache
    state and, if still over, answers [busy] as well.

    {b Deadlines.}  A request carrying [deadline_ms] is served under a
    cooperative-cancellation token ({!Sn_numerics.Cancel}) armed at
    admission time; the engines poll it at iteration boundaries, so an
    expired request unwinds within one DC rung / sweep point /
    transient step / CG iteration and answers [deadline-exceeded] with
    progress counters.  Only requests with {e equal} deadlines
    coalesce. *)

type config = {
  max_queue : int;  (** bounded-queue capacity (default 256) *)
  client_quota : int;
      (** max requests one client may have queued (default 32) *)
  max_decks : int;  (** plan-cache LRU bound (default 128) *)
  tran_max_points : int;
      (** largest transient point count a request may ask for
          (default 100_000) — a deliberate service limit so one
          request cannot wedge the daemon *)
  max_flows : int;
      (** LRU bound on the per-[(vtune, grid)] VCO flow cache
          (default 8) *)
  mem_watermark_mb : int;
      (** memory watermark in MB (default 4096): above it the service
          sheds LRU plans/flows, compacts, and answers [busy] with
          [retry_after_ms] rather than grow toward the OOM killer *)
  warmup_journal : string option;
      (** path of the fail-soft warmup journal ({!Journal}); [None]
          (the default) disables journalling *)
}

val default_config : config

type t

val create : ?config:config -> ?options:Snoise.Flow.options -> unit -> t
(** [options] (default {!Snoise.Flow.default_options}) configures the
    [spur] verb's VCO flows (grid aside, which the request picks;
    reduction, lint policy) and names the pool every dispatch runs
    on. *)

val submit :
  t -> client:int -> string ->
  [ `Queued | `Replied of Json.t | `Shutdown of Json.t ]
(** [submit t ~client line] accepts one raw request line.  Control
    verbs ([ping], [stats]), malformed lines and backpressure /
    quota refusals are answered immediately as [`Replied]; analysis
    verbs enter the queue as [`Queued]; [shutdown] returns the final
    reply as [`Shutdown] and the caller stops its loop.  Never
    raises on any input. *)

val drain : ?alive:(int -> bool) -> t -> (int * Json.t) list
(** Execute every queued request (coalescing where possible) and
    return [(client, reply)] pairs in submission order.  Engine
    failures become [error] replies; {!drain} itself never raises.
    [alive] (default: everyone) is probed per queued request; work for
    clients that already hung up is skipped entirely — the reply
    would be dropped anyway, so the pool goes to somebody still
    waiting. *)

val handle : t -> client:int -> string -> Json.t list
(** [submit] then, if the request queued, [drain] — the convenience
    path for tests, the bench and the one-shot CLI client.  Returns
    only this client's replies (in a single-client process that is
    all of them). *)

val queue_depth : t -> int
(** Requests currently queued (the [stats] reply's [queue.depth]). *)

val cache : t -> Plan_cache.t
(** The service's plan cache — exposed so the bench can clear it
    between cold and warm passes. *)

val stats_json : t -> Json.t
(** The [stats] reply payload: request / error / batching counters,
    queue state, plan-cache and VCO-flow-cache hit rates, pool stats,
    the reductions this service ran, per-verb service timings,
    memory-watermark and cancellation counters, the supervisor restart
    count, journal state, and the substrate tile-cache directory
    resolution ({!Sn_substrate.Cache.resolution}). *)

val health_json : t -> Json.t
(** The [health] reply payload: [status] (["ok"] / ["degraded"]),
    queue depth vs capacity, pool width, resident cache entries,
    memory pressure vs watermark, and the supervisor restart count. *)

val warm_from_journal : t -> int * int
(** Replay the configured warmup journal into the plan cache (most
    recent [max_decks] unique decks) and compact the file.  Returns
    [(recompiled, failed)]; [(0, 0)] when no journal is configured.
    Call before accepting traffic so a supervised restart serves its
    first repeat request from a warm cache. *)
