(** Matching-based structural singularity prediction.

    A matrix can only be nonsingular if its zero-nonzero pattern
    admits a perfect matching between rows (equations) and columns
    (unknowns) — a system of distinct representatives assigning every
    unknown a pivot position.  Over the {!Sn_engine.Stamp_plan}
    structural patterns this is a purely static test: a deck whose DC
    or AC pattern has no perfect matching {e will} die in the solver
    with a {!Sn_engine.Diag.Singular_pivot}, and the unmatched column
    names the unknown the factorization cannot eliminate.

    The converse does not hold — a pattern-perfect matrix can still be
    {e numerically} singular (two identical voltage sources in
    parallel) — which is why the analyzer keeps the graph-based
    [vsource-loop] rule alongside this one. *)

(** One structural rank deficiency of the compiled MNA system. *)
type deficiency = {
  analyses : string;  (** ["dc"], ["ac"] or ["dc and ac"] *)
  unknown : Sn_engine.Diag.unknown;  (** canonical unmatched unknown *)
  group : Sn_engine.Diag.unknown list;
      (** every unknown in the dependent block, including [unknown] *)
}

val deficiencies : Rule.context -> deficiency list
(** Deficiencies of the DC and AC structural patterns, merged per
    unknown, ordered by unknown slot. *)

val check : Rule.context -> Rule.diagnostic list
(** The [structural-singular] rule body: one error per deficiency. *)
