(** DC operating-point analysis: Newton-Raphson on the MNA equations
    with a configurable convergence-rescue ladder.

    When the plain damped Newton attempt fails, the solver escalates
    through the rungs of {!type-options.field-ladder} in order — heavier damping,
    gmin continuation, source stepping (all independent sources ramped
    from 0 to 100 %), and pseudo-transient continuation — until one
    converges.  Every attempt is recorded; the trace is exposed on the
    solution via {!attempts} and carried in the diagnostic when every
    rung fails. *)

type options = {
  max_iterations : int;  (** Newton cap per attempt / sub-step (default 200) *)
  tolerance : float;  (** max |delta x| convergence target (default 1e-9) *)
  gmin : float;  (** conductance to ground on every node (default 1e-12) *)
  damping : float;  (** per-iteration update clamp, V (default 0.6) *)
  ladder : Diag.rung list;
      (** rescue rungs tried in order (default: all five, starting with
          {!Diag.Plain_newton}); an empty list falls back to a single
          plain Newton attempt *)
}

val default_options : options

type solution

val solve : ?options:options -> Sn_circuit.Netlist.t -> solution
(** Raises {!Diag.Error} with {!Diag.No_convergence} (carrying the full
    rescue-ladder trace and the worst-residual unknown's name) when
    every rung fails, or {!Diag.Singular_pivot} (naming the node or
    element behind the pivot) when the failure was a singular matrix.
    All node references are checked at build time. *)

val solve_mna : ?options:options -> Mna.t -> solution

val solve_plan : ?options:options -> Stamp_plan.t -> solution
(** Solve over a pre-compiled stamp plan, sharing the symbolic work
    with a caller that keeps the plan (the transient engine does). *)

val assemble_plan :
  ?reactive:(Stamp_plan.sink -> Stamp_plan.elt -> unit) ->
  source:(Sn_circuit.Waveform.t -> float -> float) ->
  Stamp_plan.t -> Assembler.t -> float array -> gmin:float -> float array ->
  unit
(** [assemble_plan ~source plan asm rhs ~gmin x] restarts [asm] and
    [rhs] and stamps the real Newton system at iterate [x] through
    {!Stamp_plan.assemble}: MOSFETs linearized at [x] with their
    companion currents, [source wave ac_mag] on every independent
    source, [gmin] on every node diagonal.  [reactive] stamps the
    capacitors, varactors and inductor branch diagonals; the default
    leaves them open, the DC rule.  The transient engine passes its
    companion models. *)

val mna : solution -> Mna.t

val attempts : solution -> Diag.attempt list
(** The recorded rescue-ladder trace, in the order the rungs ran.  A
    healthy solve has exactly one converged {!Diag.Plain_newton}
    entry. *)

val voltage : solution -> string -> float
(** [voltage s node] — 0 for ground.  Raises {!Mna.Unknown_node}. *)

val mos_operating_point :
  solution -> string -> Sn_circuit.Mos_model.operating_point
(** Single-device operating point of MOSFET [name] at the solution
    (multiply small-signal parameters by the device [mult] for the
    total).  Raises [Not_found]. *)

val unknowns : solution -> float array
(** Raw unknown vector (nodes then branches) — used by the transient
    engine to warm-start. *)

val pp : Format.formatter -> solution -> unit
(** Operating-point report: every node voltage, every branch current,
    and the region / small-signal parameters of every MOSFET — the
    ".op" printout of a conventional simulator. *)
