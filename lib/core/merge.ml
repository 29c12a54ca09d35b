module C = Sn_circuit
module Macromodel = Sn_substrate.Macromodel
module Rc = Sn_interconnect.Rc_netlist

let well_net port_name =
  (* "nwell:<net>" -> "<net>" *)
  match String.index_opt port_name ':' with
  | Some i -> String.sub port_name (i + 1) (String.length port_name - i - 1)
  | None -> port_name

let of_macromodel m =
  let resistors =
    Macromodel.to_resistors m
    |> List.filter (fun (_, _, r) -> r <= 1.0e9)
    |> List.mapi (fun i (a, b, r) ->
           C.Element.Resistor
             { name = Printf.sprintf "rsub_%d" i; n1 = a; n2 = b; ohms = r })
  in
  let caps =
    List.mapi
      (fun i (port, farads) ->
        C.Element.Capacitor
          { name = Printf.sprintf "cwell_%d" i; n1 = port;
            n2 = well_net port; farads })
      m.Macromodel.well_capacitance
  in
  resistors @ caps

let of_rc_netlist nl =
  List.map
    (function
      | Rc.Res { name; n1; n2; ohms } ->
        C.Element.Resistor { name = "itc_" ^ name; n1; n2; ohms }
      | Rc.Cap { name; n1; n2; farads } ->
        C.Element.Capacitor { name = "itc_" ^ name; n1; n2; farads })
    nl
