(** Core vocabulary of the structural analyzer: severities, diagnostic
    subjects, located diagnostics, and the rule record the registry is
    made of.

    A {e rule} is one named structural check over a netlist (and, for
    the matching-based checks, its compiled MNA pattern).  Rules have
    stable kebab-case codes — the identifiers used by deck pragmas
    ([*%snoise ignore <code>]), the analyzer configuration, JSON
    output and the documentation in [docs/LINT.md]. *)

type severity = Warning | Error

(** What a diagnostic is about.  Subjects make diagnostics
    machine-comparable: the acceptance tests match the solver's
    {!Sn_engine.Diag.unknown} names against them. *)
type subject =
  | Element of string  (** a netlist element, by name *)
  | Node of string  (** a circuit node, by name *)
  | Port of string  (** a substrate port node (merge namespace) *)
  | Deck  (** the netlist as a whole *)

val subject_name : subject -> string
(** The bare name; [""] for {!Deck}. *)

type diagnostic = {
  severity : severity;
  code : string;  (** the rule that fired *)
  subject : subject;
  message : string;
  loc : Sn_circuit.Netlist.source_loc option;
      (** deck line of the subject element, when the netlist came from
          {!Sn_circuit.Spice} *)
}

val diag :
  ?loc:Sn_circuit.Netlist.source_loc ->
  severity ->
  string ->
  subject ->
  ('a, unit, string, diagnostic) format4 ->
  'a
(** [diag severity code subject fmt ...] builds a diagnostic with a
    printf-formatted message. *)

val compare_diagnostic : diagnostic -> diagnostic -> int
(** Total order: severity (errors first), then code, then subject
    name, then message — the documented, stable report order. *)

(** The analysis input: the netlist plus its lazily compiled MNA
    structure (shared by every pattern-based rule, built at most
    once per run). *)
type context = {
  netlist : Sn_circuit.Netlist.t;
  plan : Sn_engine.Stamp_plan.t Lazy.t;
}

val context : Sn_circuit.Netlist.t -> context

type t = {
  code : string;  (** stable identifier, e.g. ["structural-singular"] *)
  severity : severity;  (** severity of the diagnostics it emits *)
  summary : string;  (** one-line description (registry listing, docs) *)
  check : context -> diagnostic list;
}

val pp_diagnostic : Format.formatter -> diagnostic -> unit
(** [error [code] @ file:line: message (subject)] — the human text
    rendering used by the CLI and the flow's lint log. *)

val diagnostic_to_json : diagnostic -> Sn_json.Json.t
(** One stable JSON object:
    [{"severity", "code", "subject_kind", "subject", "message",
    "file", "line"}] ([file]/[line] are [null] when unlocated). *)
