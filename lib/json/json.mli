(** JSON values: one value type, a parser and a canonical printer.

    Every JSON document the project emits — engine diagnostics, lint
    and verify reports, the service's wire replies — is built from
    these constructors and printed by {!to_string}.  The parser reads
    bytes from outside the process: request lines, files and replies.
    The library depends on nothing but the standard library.

    Printing is canonical and stable: object members keep their
    construction order, floats render as {!shortest_float}, and
    non-finite floats render as the strings ["nan"], ["inf"],
    ["-inf"].  Stable bytes matter: batched and individual sweeps must
    produce byte-identical result payloads. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in construction order *)

val parse : string -> (t, string) result
(** [parse s] parses one JSON value (surrounding whitespace allowed).
    Errors carry a byte offset and a reason; nesting beyond 200 levels
    is rejected rather than risking a stack overflow on hostile
    input.  Trailing garbage after the value is an error. *)

val to_string : t -> string
(** Canonical single-line rendering (no insignificant whitespace). *)

val shortest_float : float -> string
(** For a finite float, a decimal that [float_of_string] reads back
    bit-identical, by the 15-or-17-digit rule: a bare integer when the
    value is one below 1e15 ([-0] for negative zero), otherwise C's
    [%.15g] when that reads back bit-identical, otherwise [%.17g].  It
    is not always the shortest such decimal: [%.17g] is the correctly
    rounded 17 digits, where a 16-digit form may exist.  The bytes are
    computed without printf except near a rounding tie, for
    subnormals and beyond about 1e-28 .. 1e60 in magnitude. *)

(** {1 Accessors}

    All return [None] on a type mismatch — request handlers turn that
    into a structured [bad-request] reply, never an exception. *)

val member : string -> t -> t option
(** [member k (Obj _)] is the value bound to [k], if any; [None] on
    non-objects. *)

val to_float : t -> float option
(** Numbers only (no string coercion). *)

val to_int : t -> int option
(** Numbers with an exact integer value. *)

val to_bool : t -> bool option

val to_str : t -> string option

val to_list : t -> t list option
(** Arrays only. *)

val float_list : t -> float list option
(** An array of numbers, e.g. a frequency list. *)
