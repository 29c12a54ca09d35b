(** Modified nodal analysis bookkeeping shared by the DC, AC and
    transient engines: node and branch-current variable numbering.

    Unknown vector layout: node voltages first (non-ground nodes in
    sorted order), then one branch current per voltage-defined element
    (independent voltage sources, VCVS, inductors). *)

type t

exception Unknown_node of { node : string; candidates : string list }
(** A node name that is not in the netlist; [candidates] holds the
    closest existing node names (by edit distance, at most five). *)

exception Unknown_branch of { name : string; candidates : string list }
(** An element name that does not define a branch current;
    [candidates] holds the closest voltage-defined element names. *)

val build : Sn_circuit.Netlist.t -> t

val netlist : t -> Sn_circuit.Netlist.t

val n_nodes : t -> int
val n_branches : t -> int

val dim : t -> int
(** [dim m = n_nodes m + n_branches m]. *)

val node_slot : t -> string -> int
(** [node_slot m name] is the unknown index of node [name], or [-1]
    for ground.  Raises {!Unknown_node} for unknown nodes. *)

val branch_slot : t -> string -> int
(** [branch_slot m element_name] is the unknown index of the branch
    current of a voltage-defined element.  Raises {!Unknown_branch}. *)

val node_names : t -> string array
(** Index [i] holds the name of unknown [i], for [i < n_nodes]. *)

val slot_name : t -> int -> string option
(** [slot_name m i] maps unknown index [i] back to its node name
    ([i < n_nodes]) or branch element name — the reverse of
    {!node_slot} / {!branch_slot}, used to attach names to solver
    diagnostics (a singular pivot, a worst-residual unknown). *)
