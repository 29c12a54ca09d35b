(** Deterministic fault injection for exercising the solver rescue
    paths.

    A healthy run never enters the DC rescue ladder, the transient
    step-backoff or the sweep retry path; this hook lets tests and the
    [SNOISE_FAULT] environment variable force a failure at an exact,
    reproducible point.  Engines poll {!fire} at each injection site
    and simulate the corresponding failure (a singular factorization,
    a diverged Newton attempt, a failed transient solve) on a hit.

    Environment syntax: [SNOISE_FAULT=<site>:<n>] fails the [n]th
    occurrence of the site counted globally across the process, once;
    [SNOISE_FAULT=<site>:first] fails occurrence #1 within every scope
    (e.g. the first Newton attempt of {e every} DC solve, forcing each
    solve through the rescue ladder).  Site names: [factor],
    [dc-attempt], [tran-solve], [server-kill], [server-delay],
    [server-garble], [server-drop].  Programmatic {!arm} overrides
    the environment.  An empty [SNOISE_FAULT] is treated as unset (a
    supervisor scrubs the variable before restarting a crashed worker
    so a single-shot injected crash cannot loop). *)

type site =
  | Factor  (** a matrix factorization in {!Assembler.solve} *)
  | Dc_attempt  (** one rescue-ladder rung attempt in a DC solve *)
  | Tran_solve  (** one transient time-point solve *)
  | Server_kill
      (** the serving worker process exits abruptly mid-request *)
  | Server_delay  (** a wire reply is delayed before being written *)
  | Server_garble  (** a wire reply line is corrupted *)
  | Server_drop
      (** a client connection is closed instead of replied to *)

type spec =
  | Nth of int  (** fail the [n]th global occurrence (1-based), once *)
  | First_in_scope
      (** fail occurrence #1 of every scope (scope = one solve) *)

val arm : site -> spec -> unit
(** [arm site spec] installs a fault and resets the occurrence
    counters.  At most one fault is armed at a time; arming replaces
    any previous fault. *)

val disarm : unit -> unit
(** Remove the armed fault and reset the counters. *)

val fire : ?scope_index:int -> site -> bool
(** [fire ?scope_index site] is polled by the engines at each
    occurrence of [site]; [true] means "simulate a failure here".
    [scope_index] is the 1-based index of the occurrence within the
    current solve (used by {!First_in_scope}; defaults to 0 = not
    scoped).  Thread-safe: with [Nth n], exactly one caller across all
    domains sees [true]. *)
