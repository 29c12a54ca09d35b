(** The socket front end of [snoise serve]: a single-threaded
    [Unix.select] loop speaking the line-delimited JSON protocol of
    {!Protocol} over a Unix-domain socket (always) and an optional
    loopback TCP endpoint.

    All simulation work happens in {!Service} on the server's own
    thread — the engine parallelizes {e inside} a dispatch via the
    domain pool, so a single reactor thread keeps replies totally
    ordered per client with no extra locking, and the coalescing
    scheduler sees every request that arrived in a read round before
    it dispatches.

    Robustness guarantees, tested in [test/test_server.ml]:
    malformed input (bad JSON, unknown verbs, oversized lines) is
    answered with a structured [error] message on the same
    connection — the server never disconnects a client for a bad
    request and never dies on one. *)

type t

val create :
  ?config:Service.config ->
  ?options:Snoise.Flow.options ->
  ?tcp:string * int ->
  ?auth_token:string ->
  socket:string ->
  unit ->
  t
(** [create ~socket ()] binds the Unix-domain listener at path
    [socket] (unlinking a stale socket file left by a previous
    process) and, when [?tcp:(host, port)] is given, a TCP listener
    as well.  Listeners are bound and listening when [create]
    returns, so a caller that forks a {!serve} thread can connect
    immediately.  Raises [Unix.Unix_error] when binding fails
    (e.g. the socket path's directory does not exist).

    When [?auth_token] is a non-empty string, every TCP connection
    must present it as a top-level ["auth_token"] member before any
    request is served; until then the connection only ever receives
    the stable [unauthorized] error.  The comparison is constant-time
    ({!Auth.equal_const}).  The Unix-domain socket — guarded by file
    permissions — never requires a token.

    [?config] and [?options] are handed to {!Service.create}. *)

val tcp_port : t -> int option
(** The bound TCP port, when a TCP listener exists.  Useful with
    [?tcp:(host, 0)]: the kernel picks an ephemeral port and tests
    read it back here. *)

val service : t -> Service.t
(** The serving core behind this server — exposed so tests can reach
    {!Service.stats_json} and the plan cache directly. *)

val serve : ?on_ready:(unit -> unit) -> t -> unit
(** Run the accept/read/dispatch/write loop until a client sends
    [shutdown] or {!stop} is called, then flush pending replies,
    close every connection and remove the socket file.  [on_ready]
    fires once just before the first [select] — the CLI uses it to
    log the endpoints. *)

val stop : t -> unit
(** Ask a running {!serve} loop to exit after its current iteration.
    Thread-safe and idempotent — how in-process tests shut the
    server down without speaking the protocol. *)
