module T = Sn_tech.Tech
module Tc = Sn_testchip
module Impact = Sn_rf.Impact

type corner = {
  name : string;
  bulk_resistivity : float;
  sheet_resistance : float;
  contact_resistance : float;
  well_capacitance : float;
}

let nominal =
  { name = "nominal"; bulk_resistivity = 1.0; sheet_resistance = 1.0;
    contact_resistance = 1.0; well_capacitance = 1.0 }

let corners_3sigma =
  [
    nominal;
    { name = "slow"; bulk_resistivity = 1.3; sheet_resistance = 1.2;
      contact_resistance = 1.5; well_capacitance = 1.2 };
    { name = "fast"; bulk_resistivity = 0.7; sheet_resistance = 0.8;
      contact_resistance = 0.6; well_capacitance = 0.8 };
    (* resistive-worst: low-ohmic substrate couples harder, resistive
       wires bounce harder *)
    { name = "res-worst"; bulk_resistivity = 0.7; sheet_resistance = 1.2;
      contact_resistance = 0.6; well_capacitance = 1.0 };
    (* capacitive-worst: bigger junctions, everything else nominal *)
    { name = "cap-worst"; bulk_resistivity = 1.0; sheet_resistance = 1.0;
      contact_resistance = 1.0; well_capacitance = 1.4 };
  ]

let apply c (tech : T.t) =
  let substrate = tech.T.substrate in
  {
    tech with
    T.metals =
      List.map
        (fun (m : T.metal) ->
          { m with
            T.sheet_resistance = m.T.sheet_resistance *. c.sheet_resistance })
        tech.T.metals;
    T.substrate =
      {
        T.layers =
          List.map
            (fun (l : T.substrate_layer) ->
              { l with T.resistivity = l.T.resistivity *. c.bulk_resistivity })
            substrate.T.layers;
        T.contact_resistance =
          substrate.T.contact_resistance *. c.contact_resistance;
        T.nwell_cap_area = substrate.T.nwell_cap_area *. c.well_capacitance;
        T.nwell_cap_perimeter =
          substrate.T.nwell_cap_perimeter *. c.well_capacitance;
      };
  }

let with_corner options c =
  { options with Flow.tech = apply c options.Flow.tech }

type vco_corner_result = {
  corner : corner;
  spur_at_10mhz_dbm : float;
  carrier_ghz : float;
}

let vco_spread ?(options = Flow.default_options) ?(corners = corners_3sigma)
    () =
  Sweep.corners ?pool:options.Flow.pool
    (fun c ->
      let flow =
        Flow.build_vco ~options:(with_corner options c) Tc.Vco_chip.default
          ~vtune:0.0
      in
      let h = Flow.vco_transfers flow ~f_noise:[| 10.0e6 |] in
      let spur =
        Flow.vco_spur flow ~h ~p_noise_dbm:Flow.paper_noise_dbm
          ~f_noise:10.0e6
      in
      {
        corner = c;
        spur_at_10mhz_dbm = spur.Impact.upper_dbm;
        carrier_ghz = Flow.vco_carrier_freq flow /. 1.0e9;
      })
    corners

let spread_db results =
  let dbs = List.map (fun r -> r.spur_at_10mhz_dbm) results in
  List.fold_left Float.max Float.neg_infinity dbs
  -. List.fold_left Float.min Float.infinity dbs
