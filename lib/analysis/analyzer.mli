(** The analyzer driver: runs every enabled rule over a netlist and
    produces a deterministic, suppression-aware report. *)

(** What to run and what to silence. *)
type config = {
  disabled : string list;
      (** rule codes not to run at all (their checks never execute) *)
  ignores : (string * string option) list;
      (** [(code, subject)] suppressions applied after running: a
          diagnostic is dropped when its code matches and — if the
          subject is [Some s] — its subject name equals [s].  [None]
          suppresses the code everywhere. *)
  use_pragmas : bool;
      (** honour [*%snoise ignore] pragmas carried by the netlist
          (see {!Sn_circuit.Spice}); they extend [ignores] *)
}

val configure : disable:string list -> ignore:string list -> config
(** Pragmas honoured, the rule codes in [disable] not run and the
    [CODE[=SUBJECT]] suppressions in [ignore] applied: [CODE] silences
    the rule everywhere, [CODE=SUBJECT] only on that element, node or
    port.  ['='] separates because subject names contain [':'].  What
    the CLI's [--disable]/[--ignore] flags and the service's
    [disable]/[ignore] lint params mean. *)

type report = {
  diagnostics : Rule.diagnostic list;
      (** deduplicated and sorted with {!Rule.compare_diagnostic}:
          errors first, then by code, subject and message — stable
          across runs and element orderings *)
  suppressed : int;
      (** diagnostics dropped by [ignores] or deck pragmas *)
}

val analyze : ?config:config -> Sn_circuit.Netlist.t -> report
(** Run the {!Rules.registry} over the netlist (compiling its
    {!Sn_engine.Stamp_plan} lazily for the pattern rules).  Element
    subjects are given the element's SPICE source location when the
    netlist carries one and the rule did not attach a location
    itself. *)

val errors : report -> Rule.diagnostic list
val warnings : report -> Rule.diagnostic list

val schema_version : int
(** Version of the JSON report shape emitted by {!to_json} (and by
    [snoise verify --json], which shares it).  Bumped when fields are
    added or change meaning; see docs/LINT.md. *)

val to_json : report -> Sn_json.Json.t
(** Stable JSON object:
    [{"tool", "version", "schema_version", "errors", "warnings",
    "suppressed", "diagnostics": [...]}] with each diagnostic rendered
    by {!Rule.diagnostic_to_json}. *)
