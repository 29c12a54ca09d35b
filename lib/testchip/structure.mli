(** A test structure as the paper's Figure 2 flow sees it: the layout
    and the node names that tie its extracted models to a circuit.
    The flow reads nothing else about a structure, so a new test chip
    or a generated layout is a value, not new flow code. *)

type t = {
  layout : Sn_layout.Layout.t;
  ground_net : string;  (** the metal net Fig. 10 widens *)
  substrate_node : string;
      (** the port the wire-to-substrate capacitors attach to *)
  ground_wire : string * string;
      (** the terminals of the ground wire whose resistance is reported *)
  inject : string;  (** the substrate injection node *)
}

(** A circuit to merge with a structure's extracted models. *)
type deck = {
  title : string;
  elements : Sn_circuit.Element.t list;  (** ahead of the models' *)
  keep : string list;
      (** passive-only nodes a reduction must keep: the ones read *)
}

val injection : string -> Sn_circuit.Element.t list
(** [injection node]: the noise source ["vnoise"] (0 V DC, unit AC)
    behind its 50 ohm output resistance ["rs_noise"] into [node]. *)
