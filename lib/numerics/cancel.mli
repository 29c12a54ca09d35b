(** Cooperative cancellation tokens for long-running solver loops.

    A token pairs an atomic cancel flag with an optional absolute
    wall-clock deadline and a progress counter.  Inner loops — DC
    rescue-ladder attempts, AC sweep points, transient steps, CG/MG
    iterations, pool task claiming — call {!tick} at each iteration
    boundary; when the ambient token is cancelled or past its
    deadline, the call raises {!Cancelled} and the work unwinds within
    one iteration.

    The ambient token is installed with {!with_token} around a unit of
    work; {!poll} and {!tick} are no-ops (one atomic load) when no
    token is installed, which keeps the disarmed overhead on hot sweep
    paths negligible. *)

type t
(** A cancellation token: atomic flag + optional deadline + progress
    counter.  Safe to share across domains. *)

exception Cancelled of t
(** Raised by {!check}, {!poll} and {!tick} when the token has been
    cancelled or its deadline has passed.  Carries the token so the
    handler that armed it can read {!progress} and {!reason}. *)

val create : ?deadline:float -> unit -> t
(** [create ?deadline ()] makes a fresh token.  [deadline] is an
    absolute [Unix.gettimeofday] timestamp; omitted means the token
    only cancels explicitly via {!cancel}. *)

val cancel : ?reason:string -> t -> unit
(** Cancel explicitly (e.g. client disconnected).  [reason] defaults
    to ["cancelled"]; a deadline expiry records ["deadline"]. *)

val cancelled : t -> bool
(** Has the token been cancelled (explicitly or by deadline expiry
    observed by a poll)? *)

val expired : t -> bool
(** Is the token past its deadline right now (without cancelling it)? *)

val progress : t -> int
(** Iteration boundaries crossed by {!tick} while this token was
    ambient — the "how far did it get" counter reported alongside a
    [deadline-exceeded] wire error. *)

val reason : t -> string
(** Why the token cancelled: ["deadline"], ["disconnect"], or the
    [reason] given to {!cancel}. *)

val check : t -> unit
(** [check t] raises {!Cancelled} if [t] is cancelled or expired.
    Expiry latches the flag so later checks are flag-only. *)

val poll : unit -> unit
(** Check the ambient token, if any.  One atomic load when disarmed. *)

val tick : unit -> unit
(** Like {!poll} but also increments the ambient token's progress
    counter.  Call at iteration boundaries of long-running loops. *)

val active : unit -> bool
(** Is an ambient token currently installed? *)

val with_token : t -> (unit -> 'a) -> 'a
(** [with_token t f] installs [t] as the ambient token for the
    duration of [f] (restoring the previous token on exit, normal or
    exceptional).  Pool workers on other domains observe the same
    ambient token. *)
