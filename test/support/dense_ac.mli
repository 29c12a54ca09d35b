(** Dense reference assembly of the complex AC admittance system: the
    slow-but-obvious formulation the sparse frequency-domain engine
    ({!Sn_engine.Ac_plan}) and the structural patterns are validated
    against.  It re-stamps the full matrix and re-evaluates every
    device's small-signal parameters at each call, independently of
    {!Sn_engine.Stamp_plan.stamp}. *)

val assemble_plan :
  Sn_engine.Stamp_plan.t -> float array -> omega:float ->
  Complex.t array array * Complex.t array
(** [assemble_plan plan dcx ~omega] is the complex MNA matrix and
    stimulus vector at angular frequency [omega].  [dcx] is the raw DC
    unknown vector; MOSFET and varactor small-signal parameters are
    evaluated at those bias voltages. *)

val system :
  Sn_engine.Mna.t -> Sn_engine.Dc.solution -> omega:float ->
  Complex.t array array * Complex.t array
(** [system mna dc ~omega] is {!assemble_plan} over a fresh stamp plan
    of [mna] at the operating point [dc]. *)
