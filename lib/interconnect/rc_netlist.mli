(** The output of interconnect extraction: a flat RC netlist whose node
    names are shared with the substrate macromodel ports and the device
    netlist, so the three models merge by name. *)

type element =
  | Res of { name : string; n1 : string; n2 : string; ohms : float }
  | Cap of { name : string; n1 : string; n2 : string; farads : float }

type t = element list

val resistors : t -> (string * string * float) list
val capacitors : t -> (string * string * float) list

val nodes : t -> string list
(** Sorted distinct node names. *)

val resistance_between : t -> string -> string -> float
(** [resistance_between nl a b] is the two-terminal resistance of the
    resistor network between nodes [a] and [b] (capacitors open).
    Raises [Not_found] for unknown nodes and [Failure] when the nodes
    are not connected. *)

