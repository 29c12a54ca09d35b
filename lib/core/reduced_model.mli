(** One interface over every extracted passive network — substrate
    macromodel, interconnect parasitics, or any merged R/C pool — that
    can be held in {e exact} form (the elements as extracted, port
    behaviour preserved exactly) or swapped for a {e rank-k reduced}
    form built by PRIMA block-Krylov projection
    ({!Sn_numerics.Krylov}): same ports, [rank] internal states instead
    of the full internal node set, passivity preserved by congruence.

    The reduced form realizes back into ordinary resistor / capacitor
    elements (over fresh internal nodes, values possibly negative —
    mathematical branches, not physical ones), so downstream stamping,
    compiled plans, caching and the server need no new element kinds:
    reduction is a netlist-to-netlist rewrite ({!reduce_deck_certified}) applied
    before compilation. *)

type order_spec =
  | Fixed of int  (** match this many block moments *)
  | Auto of float
      (** grow the order until the estimated port-transfer error over
          the AC band drops below this relative tolerance *)

type config = {
  order : order_spec;
  s0_hz : float;  (** expansion point, Hz (rad/s = 2π·[s0_hz]) *)
  band : float * float;
      (** AC band (Hz) probed by the [Auto] error estimate *)
}

val default_config : config
(** [Fixed 2], expansion point 100 MHz, band 1 MHz – 10 GHz. *)

(** The user-facing reduction knobs, named in {!config_of_knobs}'s
    messages. *)
type knob = Order | Tol | S0

val config_of_knobs :
  ?name:(knob -> string) -> ?order:float -> ?tol:float -> ?s0_hz:float ->
  unit -> (config option, string) result
(** The one validator of the reduction knobs, shared by the CLI flags
    and the server's [reduce_*] overrides.  [order] must be an integer
    in 1..1024 ([Fixed]), [tol] a relative tolerance in (0, 1)
    ([Auto]); the two are mutually exclusive, and [s0_hz] (> 0,
    default {!default_config}'s) only goes with one of them.
    [Ok None] when no knob is given.  Messages render each knob with
    [name] (default ["order"] / ["tol"] / ["s0"]). *)

val config_digest : config -> string
(** Canonical one-line rendering of a config, stable across runs — the
    string cache digests fold in so reduced and exact artifacts never
    collide ([Plan_cache] override keys, [Sn_substrate.Cache]). *)

type stats = {
  ports : int;
  internal : int;  (** internal unknowns before reduction *)
  rank : int;  (** internal states after reduction *)
  order : int;  (** block moments matched *)
  build_seconds : float;
  est_error : float;
      (** [Auto] mode's final error estimate; [nan] for fixed order *)
}

type t

(** {1 Constructors} *)

val of_elements : ports:string list -> Sn_circuit.Element.t list -> t
(** [of_elements ~ports els] wraps a passive R/C pool in exact form.
    [ports] are the node names kept explicit under reduction
    (ground is implicit and never a port).
    Raises [Invalid_argument] when [els] contains a non-R/C element or
    a port node no element touches. *)

val of_macromodel : Sn_substrate.Macromodel.t -> t
(** The substrate macromodel as a reduced-model pool: ports are its
    port nodes and well nets, elements are {!Merge.of_macromodel}.
    (A Schur macromodel is already port-only, so reduction of this
    pool alone is the identity — its value is merging into a larger
    pool via {!elements} / {!reduce_deck_certified}.) *)

val of_rc_netlist :
  ports:string list -> Sn_interconnect.Rc_netlist.t -> t
(** The interconnect parasitics as a reduced-model pool (elements are
    {!Merge.of_rc_netlist}, names prefixed ["itc_"]). *)

(** {1 Reduction} *)

val reduce : ?config:config -> t -> t
(** [reduce ?config t] is the rank-k reduced form of [t] (built from
    its exact elements; reducing an already-reduced model re-reduces
    from the stored exact form).  Falls back to the exact form — and
    logs a warning — when the internal pencil is singular (an internal
    island with no path to any port or ground) or when reduction would
    not shrink the model ([rank >= internal]). *)

val ports : t -> string array
val stats : t -> stats option
(** Reduction stats of a reduced form ([None] for exact). *)

(** {1 Realization} *)

val to_elements : ?prefix:string -> t -> Sn_circuit.Element.t list
(** The model as netlist elements: the original elements for an exact
    form; for a reduced form, the (Ĝ, Ĉ) realization as R/C branches
    over the ports plus [rank] fresh internal nodes
    ([<prefix>x<i>], elements [<prefix>g<i>] / [<prefix>c<i>], default
    prefix ["red_"]).  Branch values may be negative. *)

(** {1 Passivity certificates} *)

val verify_certificate :
  t -> Sn_numerics.Passivity.cert * Sn_numerics.Passivity.cert -> bool
(** Re-verify stored certificates against the pencil bytes (hashing
    only, no factorization).  [false] for exact forms and on any
    mismatch. *)

val port_admittance : t -> freq_hz:float -> Complex.t array array
(** The model's port admittance matrix at [freq_hz] — the quantity
    reduction preserves, used by tests and the [Auto] error estimate.
    Dense [O(n³)] in the model size; meant for reduced forms and
    test-sized exact references. *)

(** {1 Deck rewrite} *)

val reduce_deck_certified :
  ?config:config -> ?keep:string list -> Sn_circuit.Netlist.t ->
  Sn_circuit.Netlist.t
  * (t * (Sn_numerics.Passivity.cert * Sn_numerics.Passivity.cert) option)
    option
(** [reduce_deck_certified ?config ?keep nl] swaps the passive R/C pool
    of [nl] for its reduced realization: ports are every passive node also
    touched by a non-R/C element, named in [keep], or named in a deck
    directive [*%snoise reduce keep=n1,n2,...]; all other
    passive-only nodes are eliminated.  Nodes that are {e not} kept no
    longer exist downstream — observation nodes must be listed in
    [keep] (or the directive) to survive.  Active elements, title,
    pragmas and directives are carried over unchanged.  Returns [nl]
    itself when there is nothing to reduce, when reduction would not
    shrink the deck, or when the passive pool is irreducible
    (singular internal pencil — logged).

    The second component is the artifact the rewrite realized: [None]
    when nothing was reduced, otherwise the reduced model and the
    passivity certificates of its (Ĝ, Ĉ) pencil — signed PSD
    certificates bound to the model's port set, [None] for a pencil
    that fails the LDLᵀ check (SPRIM congruence preserves passivity,
    so a healthy reduction always certifies).  The server's plan cache
    keeps them alongside the compiled plan, so a resident plan's
    pencil can be re-verified by hashing alone ([snoise verify],
    server [verify] verb). *)
