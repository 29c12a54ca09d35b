(** Typed solver diagnostics.

    One variant type, {!t}, covers every way an analysis can fail:
    Newton non-convergence, a singular pivot during factorization, a
    transient step that could not complete even at the minimum step
    size, and malformed input.  Each constructor carries the analysis
    name, the time or frequency point, iteration counts and — via
    {!Mna.slot_name} — the {e name} of the node or element involved
    rather than a bare matrix index.

    Diagnostics render two ways: {!pp} for humans and {!to_json} for
    reports, CI and the service's wire replies (stable key order). *)

type location = {
  analysis : string;  (** ["dc"], ["tran"], ["ac"], a sweep label… *)
  time : float option;  (** transient time point, seconds *)
  freq : float option;  (** AC frequency point, Hz *)
}

val loc : ?time:float -> ?freq:float -> string -> location
(** [loc analysis] builds a {!location}; [?time] and [?freq] default
    to [None]. *)

(** An MNA unknown identified by name: a node voltage or the branch
    current of a voltage-defined element. *)
type unknown = Node of string | Branch of string

(** One rung of the DC convergence-rescue ladder, in escalation
    order. *)
type rung =
  | Plain_newton  (** the ordinary damped Newton attempt *)
  | Damped_newton  (** heavier damping, larger iteration budget *)
  | Gmin_stepping  (** gmin continuation from a large shunt gmin *)
  | Source_stepping  (** all V/I sources ramped from 0 to 100 % *)
  | Pseudo_transient  (** artificial time stepping toward steady state *)

val rung_name : rung -> string
(** Stable lower-case name, e.g. ["source-stepping"]. *)

type attempt = {
  rung : rung;
  iterations : int;  (** Newton iterations spent on this rung *)
  converged : bool;
}
(** One recorded rescue-ladder attempt. *)

type t =
  | No_convergence of {
      loc : location;
      iterations : int;  (** total iterations across all attempts *)
      residual : float;  (** worst residual at the last attempt *)
      worst : unknown option;  (** unknown with the largest residual *)
      attempts : attempt list;  (** the rescue-ladder trace *)
    }  (** every rescue rung was exhausted without convergence *)
  | Singular_pivot of {
      loc : location;
      pivot : int;  (** MNA unknown (column) index; [-1] if unknown *)
      unknown : unknown option;  (** the pivot mapped back to a name *)
    }  (** LU factorization hit a zero or non-finite pivot *)
  | Step_truncated of {
      loc : location;  (** [loc.time] is the first uncompleted time *)
      dt_final : float;  (** smallest step size attempted *)
      retries : int;  (** backoff retries spent on the failing step *)
      completed_points : int;  (** accepted points in the partial waveform *)
    }  (** a transient step failed even at the minimum step size *)
  | Bad_input of { loc : location; what : string }
      (** malformed input detected before solving *)

exception Error of t
(** Raised by engine entry points that cannot return a [result];
    registered with {!Printexc} so uncaught diagnostics print
    readably. *)

val unknown_of_slot : Mna.t -> int -> unknown option
(** [unknown_of_slot mna i] names MNA unknown [i] — [Node _] for a
    node-voltage slot, [Branch _] for a branch-current slot, [None]
    when [i] is out of range (e.g. the [-1] used by injected
    faults). *)

val pp : Format.formatter -> t -> unit
(** Human-readable, possibly multi-line rendering (the rescue-ladder
    trace prints one attempt per line). *)

val to_string : t -> string
(** [Format.asprintf "%a" pp]. *)

val to_json : t -> Sn_json.Json.t
(** Stable JSON object with a ["kind"] discriminator
    (["no-convergence"], ["singular-pivot"], ["step-truncated"],
    ["bad-input"]).  Non-finite floats render as the strings ["nan"],
    ["inf"], ["-inf"]. *)
