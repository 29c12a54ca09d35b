(** Conversion of the extracted models into netlist elements so the
    three models (substrate macromodel, interconnect parasitics,
    device-level circuit) merge by node name into one impact model
    ([Flow.merge]) — the box labelled "simulation model of the entire
    system" in the paper's Figure 2. *)

val of_macromodel : Sn_substrate.Macromodel.t -> Sn_circuit.Element.t list
(** [of_macromodel m] renders the port conductance matrix as named
    resistors between port-named nodes (couplings above 1 Gohm are
    dropped) and each well port's junction capacitance as a capacitor
    between the port node ["nwell:<net>"] and its circuit net node
    ["<net>"]. *)

val of_rc_netlist : Sn_interconnect.Rc_netlist.t -> Sn_circuit.Element.t list
(** Interconnect R / C as circuit elements (names prefixed ["itc_"]). *)
