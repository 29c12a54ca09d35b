(** The built-in rule suite and its registry.

    Codes are stable identifiers: deck pragmas, analyzer configuration
    and [docs/LINT.md] all refer to rules by code.  The registry is
    sorted by code; {!Analyzer.analyze} runs every rule that is not
    disabled. *)

val registry : Rule.t list
(** All built-in rules, sorted by code:
    - ["conditioning-span"] (warning): a node whose incident
      conductance magnitudes span enough decades that LU elimination
      cancels its pivot — the static conditioning bound of the
      numerical pre-flight (see {!Numeric});
    - ["dangling-node"] (warning): a node touched by exactly one
      element terminal;
    - ["duplicate-element"] (warning): two elements of the same kind,
      nodes and value — almost always a double merge;
    - ["extract-tile-degenerate"] (warning): an
      [*%snoise extract tiles=TXxTY] directive whose tiling would
      leave a tile with zero cells (more tiles than lateral grid
      cells) or guarantee a tile with zero substrate ports
      (pigeonhole against the deck's port count) — the stitch then
      only adds overhead;
    - ["extreme-value"] (warning): component value or device geometry
      outside its plausible range — usually a unit-suffix slip;
    - ["floating-body"] (warning): a MOSFET bulk node touched only by
      bulk terminals — no substrate tie;
    - ["floating-gate"] (warning): a MOSFET gate node touched only by
      gate terminals — DC bias undefined;
    - ["isource-cutset"] (warning): a current source whose current has
      no return path — the cutset dual of [vsource-loop]; the gmin
      floor keeps such decks solvable, but voltages reach [I/gmin];
    - ["no-ground-path"] (error): a connected component with no DC
      path to ground;
    - ["non-passive-pool"] (error): the deck's R/C pool assembles into
      an indefinite conductance or capacitance matrix — a corrupted or
      de-passivated reduced realization (see {!Numeric});
    - ["shorted-element"] (warning): an element with all terminals on
      one node;
    - ["stiff-transient"] (warning): the per-node RC time-constant
      spread exceeds what any transient step size can both resolve and
      cover (see {!Numeric});
    - ["structural-singular"] (error): the compiled MNA pattern admits
      no perfect row/column matching (see {!Structural});
    - ["unbound-port"] (warning): a substrate macromodel port that
      never met a circuit element after {!Snoise.Merge};
    - ["unknown-pragma"] (warning): an [ignore] pragma naming a rule
      code that does not exist — a typo that suppresses nothing;
    - ["untied-ring"] (warning): a guard ring / substrate tap bound to
      circuit elements but with no metal DC path to ground;
    - ["vsource-loop"] (error): a cycle of ideal voltage sources /
      inductors (numerically singular at DC). *)

