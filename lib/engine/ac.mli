(** AC small-signal analysis: the netlist is linearized around a DC
    operating point and solved in the complex domain per frequency.

    Stimuli are the sources' [ac_mag] fields; everything else is
    linearized (MOSFETs become gm / gds / gmb controlled sources plus
    their capacitances, varactors become C(V_dc)).

    Solves run on the sparse frequency-domain engine ({!Ac_plan}): the
    stamp plan is compiled once per operating point into
    frequency-independent conductance and susceptance slot lists, each
    point is a [G + jwB] refill into a reused sparse pattern, and the
    symbolic factorization is computed once and numerically refilled per
    frequency.  {!sweep} distributes points over a {!Pool} ([?pool],
    default {!Pool.default}); results are byte-identical at any pool
    width. *)

type solution

val solve : ?dc:Dc.solution -> Sn_circuit.Netlist.t -> freq:float -> solution
(** [solve ?dc nl ~freq] computes the phasor solution at [freq] (Hz).
    The operating point is computed with {!Dc.solve} when not
    supplied.  Raises [Invalid_argument] when [freq < 0], and
    {!Diag.Error} with a frequency-tagged {!Diag.Singular_pivot}
    (naming the offending node or element) when the complex system is
    singular at [freq]. *)

val voltage : solution -> string -> Complex.t
(** Node phasor (0 for ground).  Raises [Not_found]. *)

type sweep_point = { freq : float; values : (string * Complex.t) list }

val sweep :
  ?pool:Pool.t -> ?dc:Dc.solution -> Sn_circuit.Netlist.t ->
  freqs:float array -> nodes:string list -> sweep_point array
(** [sweep nl ~freqs ~nodes] reuses one operating point, one compiled
    plan and one symbolic factorization across the whole frequency
    sweep, and evaluates the points on [pool] (default
    {!Pool.default}).  The result
    array is positioned by input index and byte-identical regardless of
    the pool's width.  Raises as {!solve}; unknown node names raise
    [Not_found] before any solve runs. *)

val sweep_plan :
  ?pool:Pool.t -> Ac_plan.t -> freqs:float array -> nodes:string list ->
  sweep_point array
(** [sweep_plan acp ~freqs ~nodes] is {!sweep} over a pre-compiled
    {!Ac_plan}: the symbolic factorization is pinned once (or reused
    when the plan already carries it) and the points run on [pool].
    Because a plan's pivot order is fixed by its first factorization,
    repeated and batched sweeps over one cached plan are
    byte-identical however the points are grouped into dispatches.
    Raises as {!sweep}. *)
