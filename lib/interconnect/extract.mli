(** Interconnect parasitic extraction (the DIVA substitute).

    Every metal [Path] shape that carries both terminal labels becomes
    a chain of square-counted resistors with a pi-model capacitance to
    the substrate; [Via] paths become lumped via-array resistances.
    Paths missing a terminal are skipped (decorative geometry).

    Node naming: the two terminals keep their labels (they are circuit
    nodes); interior bend nodes are ["<net>~<shape>~<k>"]. *)

type options = {
  include_resistance : bool;
      (** [false] shorts every extracted wire — the paper's "classical
          methodology" ablation that ignores interconnect R *)
  include_capacitance : bool;
  substrate_node : string;
      (** node that wire-to-substrate capacitors connect to; merge it
          with a substrate port (e.g. the bulk probe under the
          circuit).  A wire end that is this node gets no half
          capacitor: it would short on the node *)
}

val default_options : options
(** R and C both enabled, substrate node ["sub_bulk"].  A wire whose
    resistance is off or rounds to zero gets a 1 micro-ohm floor,
    keeping the topology connected. *)

type report = {
  netlist : Rc_netlist.t;
  wires_extracted : int;
  wires_skipped : int;
  total_squares : float;
}

val extract :
  ?options:options -> tech:Sn_tech.Tech.t -> Sn_layout.Layout.t -> report
(** [extract ?options ~tech layout] runs extraction over the flattened
    layout.  Raises [Invalid_argument] when a metal path references an
    unknown metal level. *)

val widen_net :
  net:string -> factor:float -> Sn_layout.Layout.t -> Sn_layout.Layout.t
(** [widen_net ~net ~factor l] scales the width of every metal path of
    [net] — the Fig. 10 layout change ("enlarging where possible the
    ground interconnect lines ... by a factor of two"). *)
