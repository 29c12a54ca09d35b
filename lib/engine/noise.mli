(** Small-signal noise analysis (the Spectre [noise] statement).

    Thermal noise of every resistor ([4kT/R]) and channel thermal
    noise of every MOSFET ([4kT gamma gm], [gamma = 2/3]) is
    propagated to an output node with the adjoint method: one solve of
    the {e transposed} AC system per frequency gives the transfer from
    every internal current injection to the output at once.

    The transpose solve runs on the {e same} sparse factorization the
    forward AC path builds ([U{^T}] then [L{^T}] sweeps) — no
    transposed matrix is materialized and no second factorization is
    run.  Frequency points are distributed over [?pool] (default
    {!Pool.default}) with byte-identical results at any width. *)

type contribution = {
  element : string;
  psd : float;  (** V^2 / Hz at the output due to this element *)
}

type point = {
  freq : float;
  total_psd : float;  (** V^2 / Hz *)
  contributions : contribution list;  (** sorted, largest first *)
}

val analyze :
  ?pool:Pool.t -> ?dc:Dc.solution -> ?temperature:float ->
  Sn_circuit.Netlist.t -> output:string -> freqs:float array -> point list
(** [analyze ?dc ?temperature nl ~output ~freqs] computes the output
    noise voltage spectral density.  [temperature] defaults to 300 K.
    Raises [Not_found] for an unknown output node and
    [Invalid_argument] for negative frequencies (validated before any
    solve runs). *)

val analyze_plan :
  ?pool:Pool.t -> ?temperature:float -> dc:Dc.solution -> Ac_plan.t ->
  output:string -> freqs:float array -> point list
(** [analyze_plan ~dc acp ~output ~freqs] is {!analyze} over a
    pre-compiled {!Ac_plan} and its operating point — the
    resident-service hot path, skipping the MNA build, the stamp-plan
    compilation and the bias solve.  [dc] must be the operating point
    the plan was compiled at.  Raises as {!analyze}. *)

val total_rms : point list -> float
(** [total_rms points] integrates the PSD over the swept band
    (trapezoidal in linear frequency) and returns the RMS noise
    voltage (V).  Raises [Invalid_argument] on fewer than 2 points. *)

val spot_nv : point -> float
(** [spot_nv p] is the spot noise in nV/sqrt(Hz). *)
