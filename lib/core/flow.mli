(** The paper's simulation methodology (Figure 2) end to end:

    layout + technology
    -> substrate macromodel (sn_substrate)
    -> interconnect RC model (sn_interconnect)
    -> circuit model (sn_circuit)
    -> merged impact model (Merge)
    -> impact simulation (sn_engine AC) and spur prediction (sn_rf).

    Every {!Sn_testchip.Structure.t} takes this path: {!extract} builds
    its models once (the expensive step; substrate extraction
    dominates), and {!merge} combines them with as many circuit decks
    as the analyses need.  Flow values are immutable after
    construction, so independent analyses of one flow may run on
    parallel pool workers ({!Sn_engine.Pool.map_list} over
    {!pool_of}). *)

(** Knobs of one flow run — the ablations of the paper's evaluation
    are all expressed as option records.  The record is the whole run
    configuration: the library reads no process-wide setting, so two
    flows built with different options in one process never see each
    other's reduction, lint policy or pool. *)
type options = {
  grid : Sn_substrate.Grid.config;
      (** substrate FDM discretization (default 48x48, four doping
          layers) *)
  tiles : int * int;
      (** hierarchical-Schur tiling of the substrate extraction
          (default [(1, 1)], the whole-die reduction) — see
          {!Sn_substrate.Tiling} *)
  interconnect_resistance : bool;
      (** [false] reproduces the "classical flow" that ignores wire R *)
  widen_ground : float option;
      (** Fig. 10: scale factor applied to the ground-net wire widths
          before extraction *)
  tech : Sn_tech.Tech.t;
      (** process card; default {!Sn_tech.Tech.imec018} — corner
          analysis swaps in scaled variants *)
  lint : bool;
      (** run the {!Sn_analysis} rule suite on every merged model
          before simulating it (default [true]; the CLI's [--no-lint]
          clears it); error-severity diagnostics refuse to simulate by
          raising {!Sn_engine.Diag.Error} *)
  reduce : Reduced_model.config option;
      (** swap each merged model's passive pool (substrate resistors,
          well capacitors, interconnect RC) for its PRIMA rank-k
          realization ({!Reduced_model.reduce_deck_certified}) before
          simulating; [None] (the default) simulates the exact
          models.  The CLI's [--reduce-order] / [--reduce-tol] set it.
          Observation nodes the flow needs (injection node, back-gate
          probes, spur entry nodes) are kept explicit automatically. *)
  pool : Sn_engine.Pool.t option;
      (** worker pool for the substrate extraction, the AC sweeps and
          every sweep fan-out of the run; [None] (the default)
          means {!Sn_engine.Pool.default}.  The CLI's [--jobs N] sets
          it to a pool of width [N].  Output is byte-identical at any
          width. *)
}

val default_options : options
(** The paper's setup: 48x48 grid, extracted interconnect resistance,
    nominal widths, the 0.18 um high-ohmic imec card, lint gate on,
    no reduction, the default pool. *)

val pool_of : options -> Sn_engine.Pool.t
(** The pool a run with [options] uses: [options.pool], else
    {!Sn_engine.Pool.default}. *)

val lint_gate : ?enabled:bool -> Sn_circuit.Netlist.t -> unit
(** [lint_gate nl] runs {!Sn_analysis.Analyzer.analyze} (with deck
    pragmas honoured) and refuses a netlist with error-severity
    diagnostics by raising {!Sn_engine.Diag.Error} with a
    {!Sn_engine.Diag.Bad_input} listing every error; every warning is
    logged.  [?enabled:false] turns the gate into a no-op. *)

(* ------------------------------------------------------------------ *)
(** {1 Numerical pre-flight}

    Everything [snoise verify] reports about a deck: the full analyzer
    report (structural and numeric rules), the raw analyses behind the
    numeric rules ({!Sn_analysis.Numeric}), and — when a reduction is
    requested — whether the deck's reduced pencil earns a passivity
    certificate.  Purely static: no DC solve, no sweep, no
    extraction. *)

(** Did the configured model-order reduction certify? *)
type reduction_verdict =
  | Not_reduced
      (** no reduction configured, or the deck has nothing to reduce *)
  | Certified  (** the reduced (Ĝ, Ĉ) pencil carries PSD certificates *)
  | Refused
      (** reduction produced an indefinite pencil —
          {!Sn_numerics.Passivity.certify} declined to sign it *)

val reduction_verdict_name : reduction_verdict -> string
(** Stable kebab-case name for JSON output: ["not-reduced"],
    ["certified"], ["refused"]. *)

type preflight = {
  pf_report : Sn_analysis.Analyzer.report;
  pf_spans : Sn_analysis.Numeric.span list;
      (** conductance spans above {!Sn_analysis.Numeric.span_limit} *)
  pf_stiffness : Sn_analysis.Numeric.stiffness option;
      (** RC time-constant extremes, when the deck has a resistively
          tied capacitive pair at all *)
  pf_pool : Sn_analysis.Numeric.pool_defect list;
      (** indefinite R/C pool components *)
  pf_reduction : reduction_verdict;
}

val preflight :
  ?config:Sn_analysis.Analyzer.config -> ?reduce:Reduced_model.config ->
  Sn_circuit.Netlist.t -> preflight
(** Run the pre-flight over a deck.  [?config] tunes the analyzer pass
    exactly as in {!Sn_analysis.Analyzer.analyze} (deck pragmas are
    honoured either way).  [?reduce] dry-runs that reduction of the
    (unreduced) deck and sets [pf_reduction] from its certificate;
    without it [pf_reduction] is [Not_reduced]. *)

val preflight_failing : preflight -> bool
(** The verify gate: [true] when any diagnostic fired (warnings
    included — verify is stricter than the lint gate by design) or the
    configured reduction was refused a certificate. *)

(* ------------------------------------------------------------------ *)
(** {1 Compiled decks (resident flows)}

    The per-invocation CLI pays parse, lint, MNA build, stamp-plan
    compilation and the DC bias on every run.  A {!compiled} value
    pays each stage exactly once and memoizes the rest, which is what
    the [snoise serve] daemon keeps hot between requests: a warm
    served analysis is a pure solve over pre-compiled plans.  Values
    are safe to share between threads — the lazily-computed stages are
    memoized behind a mutex. *)

type compiled
(** One deck's compiled artifacts: netlist, MNA structure,
    {!Sn_engine.Stamp_plan}, and (lazily) the DC operating point and
    the complex {!Sn_engine.Ac_plan} at that bias. *)

val compile_deck : ?lint:bool -> Sn_circuit.Netlist.t -> compiled
(** [compile_deck nl] runs the {!lint_gate} (unless [~lint:false]) and
    compiles the deck's stamp plan.  The expensive bias-dependent
    stages are deferred until first use.  Raises
    {!Sn_engine.Diag.Error} on lint errors, like every flow entry
    point. *)

val compiled_netlist : compiled -> Sn_circuit.Netlist.t
(** The deck the artifacts were compiled from. *)

val compiled_mna : compiled -> Sn_engine.Mna.t
(** The deck's MNA structure (node/branch name resolution). *)

val compiled_bias : compiled -> Sn_engine.Dc.solution
(** The DC operating point, solved on first call and memoized.
    Raises {!Sn_engine.Diag.Error} when the rescue ladder is
    exhausted; the failure is {e not} memoized, so a later call
    retries. *)

val compiled_bias_cached : compiled -> bool
(** Whether {!compiled_bias} has already been computed — how the
    server's stats distinguish a bias hit from a bias solve. *)

val compiled_ac_plan : compiled -> Sn_engine.Ac_plan.t
(** The complex G + jwB plan compiled at {!compiled_bias}, memoized.
    Because the plan also carries its master factorization after the
    first solve, repeated served AC/noise requests skip the symbolic
    factorization too. *)

(* ------------------------------------------------------------------ *)
(** {1 The Figure 2 pipeline} *)

type extracted
(** A structure's substrate macromodel and interconnect RC, the
    options they were built with, and the lint warnings logged so far
    (guarded: safe to share between pool workers). *)

val extract : ?options:options -> Sn_testchip.Structure.t -> extracted
(** Widens the ground net when [options.widen_ground] is set, then
    extracts the interconnect and the substrate.  No merge, lint or
    solve. *)

val merge :
  extracted -> Sn_testchip.Structure.deck ->
  Sn_circuit.Netlist.t * Reduced_model.stats option
(** The deck's circuit, then the substrate and interconnect elements
    ({!Merge}); reduced when [options.reduce] is set (stats [None] when
    exact or when reduction won nothing), then {!lint_gate}d when
    [options.lint], logging each distinct warning once per [extracted]. *)

(* ------------------------------------------------------------------ *)
(** {1 NMOS measurement structure (paper section 3)} *)

type nmos_flow
(** Extracted models of the four-finger NMOS measurement structure
    (substrate macromodel + ground interconnect), ready for
    bias-dependent analysis. *)

val build_nmos :
  ?options:options -> Sn_testchip.Nmos_structure.params -> nmos_flow
(** Extracts the substrate macromodel and the ground interconnect of
    the measurement structure once; bias-dependent analyses reuse
    them. *)

val nmos_ground_wire_resistance : nmos_flow -> float
(** Extracted metal resistance from the MOS guard ring to the pad. *)

val nmos_divider : nmos_flow -> float
(** SUB -> back-gate voltage division with the rings grounded through
    their extracted interconnect (the paper's 1/652 figure), evaluated
    at 1 MHz where the structure is purely resistive. *)

(** One bias point of the Fig. 4/5 substrate-to-drain transfer
    characterization. *)
type nmos_point = {
  vgs : float;  (** gate bias, V *)
  vds : float;  (** drain bias, V *)
  gmb_total : float;  (** S, all four devices *)
  gds_total : float;  (** S, all four devices *)
  transfer_sim_db : float;  (** AC |v(d)| / |v(sub_inject)| *)
  transfer_hand_db : float;  (** divider * gmb / gds, the paper's check *)
}

val nmos_transfer :
  nmos_flow -> divider:float -> vgs:float -> vds:float -> freq:float ->
  nmos_point
(** Simulates the substrate-to-drain transfer at one bias point and
    also evaluates the paper's hand formula for cross-checking.
    [divider] is the flow's {!nmos_divider}, which does not depend on
    the bias: a sweep computes it once and passes it to every point. *)

(* ------------------------------------------------------------------ *)
(** {1 VCO (paper sections 4-6)} *)

type vco_flow
(** Extracted models of the 3 GHz LC-VCO test chip at one tuning
    voltage: substrate macromodel, ground/tank interconnect, and the
    oscillator operating point. *)

val build_vco :
  ?options:options -> Sn_testchip.Vco_chip.params -> vtune:float -> vco_flow
(** Runs the full extraction chain for the VCO chip at tuning voltage
    [vtune]; the returned flow is reused by every spur analysis. *)

val vco_merged : vco_flow -> Sn_circuit.Netlist.t
(** Merged impact model of the VCO (substrate + interconnect + the
    linearized oscillator core). *)

val vco_oscillator : vco_flow -> Sn_rf.Impact.oscillator
(** Oscillator operating point (carrier, amplitude, sensitivities)
    consumed by the spur model. *)

val vco_ground_wire_resistance : vco_flow -> float
(** Extracted resistance of the VCO ground net, the Fig. 10 knob. *)

val vco_reduction : vco_flow -> Reduced_model.stats option
(** Stats of the reduction this flow applied to its merged model
    (order, rank, build time, estimated error); [None] for an exact
    flow or when reduction won nothing. *)

val vco_carrier_freq : vco_flow -> float
(** Free-running carrier frequency at this flow's [vtune], Hz. *)

val vco_amplitude : vco_flow -> float
(** Differential tank amplitude at the operating point, V. *)

val vco_transfers :
  vco_flow -> f_noise:float array ->
  (float -> string -> Complex.t)
(** [vco_transfers flow ~f_noise] runs the AC impact simulation of the
    merged model over the noise frequencies (unit drive at the noise
    source) and returns the transfer accessor [h f node] used by the
    spur model.  The inductor entry's capacitive transfer is formed
    from the bulk potential under the coil and the tank's common-mode
    impedance.  [h] answers only the swept frequencies and the spur
    entry nodes: any other query raises [Invalid_argument] naming the
    frequency and node. *)

val paper_noise_dbm : float
(** The paper's injected tone power: -5 dBm. *)

val default_f_noise : float
(** The substrate tone frequency a run takes when none is given:
    10 MHz (Fig. 7). *)

val default_vtune : float
(** The VCO tuning voltage a run takes when none is given: 0.45 V, mid
    tuning range. *)

val vco_spur :
  vco_flow -> h:(float -> string -> Complex.t) -> p_noise_dbm:float ->
  f_noise:float -> Sn_rf.Impact.spur
(** Spur prediction for a substrate tone of the given power (dBm into
    the 50 ohm injection chain). *)
