(** Transient analysis: fixed-step backward-Euler or trapezoidal
    integration with a Newton solve per time point.

    Capacitors and inductors get the standard companion models; the
    varactor integrates its exact charge equation (charge-conserving),
    which matters when it frequency-modulates the tank. *)

type method_ = Backward_euler | Trapezoidal

type initial_condition =
  | Operating_point  (** start from the DC solution *)
  | Uic of (string * float) list
      (** skip the DC solve; start from 0 V except the listed nodes *)

type options = {
  method_ : method_;
  max_newton : int;
  ic : initial_condition;
  record : string list option;  (** nodes to record; [None] = all *)
  linear_fast_path : bool;
      (** when the circuit is linear (no MOSFET, no varactor), skip the
          Newton loop and — on a fixed step — freeze the LU
          factorization after the first point, leaving two triangular
          solves per step (default [true]) *)
  max_step_retries : int;
      (** step-size halvings tried when a time point fails before the
          waveform is truncated (default 6, i.e. down to [dt / 64]) *)
}

val default_options : options
(** Trapezoidal, 50 Newton iterations, 1e-9 tolerance, operating-point
    start, record all nodes, linear fast path on. *)

exception Step_failed of { time : float; iterations : int }
(** Internal per-point failure.  The public entry points do not let it
    escape: a failing point triggers the step-retry backoff, and past
    the retry limit the waveform is returned truncated (see
    {!type-dataset.field-truncated}). *)

type dataset = {
  times : float array;
  names : string array;
  data : float array array;  (** [data.(k)] is the waveform of [names.(k)] *)
  truncated : Diag.t option;
      (** [None] for a complete run; [Some (Step_truncated _)] when a
          time point kept failing at the smallest allowed step and the
          waveform stops early — [times] / [data] then hold only the
          accepted points *)
}

val simulate :
  ?options:options -> tstop:float -> dt:float -> Sn_circuit.Netlist.t ->
  dataset
(** [simulate ?options ~tstop ~dt nl] integrates from 0 to [tstop].
    A failing time point is retried by re-integrating its interval
    with up to [2 ^ max_step_retries] substeps; if even the smallest
    substep fails, the partial waveform is returned with
    {!type-dataset.field-truncated} set instead of raising.  Raises
    [Invalid_argument] for non-positive [tstop] / [dt]. *)

val node : dataset -> string -> float array
(** Waveform of one recorded node.  Raises [Not_found]. *)
