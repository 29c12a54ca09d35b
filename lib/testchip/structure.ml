module E = Sn_circuit.Element

type t = {
  layout : Sn_layout.Layout.t;
  ground_net : string;
  substrate_node : string;
  ground_wire : string * string;
  inject : string;
}

type deck = { title : string; elements : E.t list; keep : string list }

let injection node =
  [
    E.Vsource { name = "vnoise"; np = "sub_drive"; nn = "0";
                wave = Sn_circuit.Waveform.dc 0.0; ac_mag = 1.0 };
    E.Resistor { name = "rs_noise"; n1 = "sub_drive"; n2 = node; ohms = 50.0 };
  ]
