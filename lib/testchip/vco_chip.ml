module G = Sn_geometry
module L = Sn_layout
module C = Sn_circuit
module Tank = Sn_rf.Tank

type params = {
  ring_inner : float;
  ring_strip : float;
  sub_offset : float;
  sub_size : float;
  vss_wire_length : float;
  vss_wire_width : float;
  vdd_wire_length : float;
  vdd_wire_width : float;
  vtune_wire_length : float;
  vtune_wire_width : float;
  probe_resistance : float;
  tank : Tank.t;
  inductor_series_r : float;
  inductor_sub_cap : float;
  tail_current : float;
  nmos : C.Mos_model.t;
  pmos : C.Mos_model.t;
  pair_w : float;
  pair_l : float;
}

let vco_nmos =
  { C.Mos_model.default_nmos with
    C.Mos_model.name = "vconmos";
    cdb = 60.0e-15; csb = 90.0e-15; cgs = 80.0e-15; cgd = 25.0e-15 }

let vco_pmos =
  { C.Mos_model.default_pmos with
    C.Mos_model.name = "vcopmos";
    cdb = 75.0e-15; csb = 110.0e-15; cgs = 100.0e-15; cgd = 30.0e-15 }

let default =
  {
    ring_inner = 45.0;
    ring_strip = 14.0;
    sub_offset = 160.0;
    sub_size = 25.0;
    vss_wire_length = 70.0;
    vss_wire_width = 2.0;
    vdd_wire_length = 360.0;
    vdd_wire_width = 2.0;
    vtune_wire_length = 300.0;
    vtune_wire_width = 1.0;
    probe_resistance = 0.2;
    tank = Tank.default_3ghz;
    inductor_series_r = 2.0;
    inductor_sub_cap = 120.0e-15;
    tail_current = 5.0e-3;
    nmos = vco_nmos;
    pmos = vco_pmos;
    pair_w = 60.0e-6;
    pair_l = 0.18e-6;
  }

let inject = "sub_inject"

let layout p =
  let center = G.Point.zero in
  let bg name x =
    L.Shape.rect
      ~layer:(L.Layer.Backgate_probe name)
      ~net:"-"
      (G.Rect.of_center (G.Point.v x 0.0) ~width:10.0 ~height:10.0)
  in
  let pmos_well =
    L.Shape.rect ~layer:L.Layer.Nwell ~net:"vdd_local"
      (G.Rect.make (-22.0) 24.0 22.0 44.0)
  in
  let varactor_well =
    L.Shape.rect ~layer:L.Layer.Nwell ~net:"vtune_w"
      (G.Rect.make (-12.0) (-40.0) 12.0 (-24.0))
  in
  let guard_ring =
    Ring.contacts ~net:"vss_ring" ~center ~inner:(2.0 *. p.ring_inner)
      ~strip:p.ring_strip
  in
  let sub =
    L.Shape.rect ~layer:L.Layer.Substrate_contact ~net:inject
      (G.Rect.of_center
         (G.Point.v p.sub_offset 0.0)
         ~width:p.sub_size ~height:p.sub_size)
  in
  let inductor_probe =
    L.Shape.rect
      ~layer:(L.Layer.Backgate_probe "sub_ind")
      ~net:"-"
      (G.Rect.make (-30.0) 70.0 30.0 120.0)
  in
  let ring_edge = p.ring_inner +. p.ring_strip in
  let wire net width length ~from_terminal ~to_terminal y =
    L.Shape.path ~layer:(L.Layer.Metal 1) ~net ~from_terminal ~to_terminal
      (G.Path.make ~width
         [ G.Point.v (-.ring_edge) y; G.Point.v (-.ring_edge -. length) y ])
  in
  let vss_stub =
    (* short wide strap from the circuit ground to the ring *)
    L.Shape.path ~layer:(L.Layer.Metal 1) ~net:"vss"
      ~from_terminal:"vss_local" ~to_terminal:"vss_ring"
      (G.Path.make ~width:8.0
         [ G.Point.v (-20.0) 0.0; G.Point.v (-.ring_edge) 0.0 ])
  in
  let vss_wire =
    wire "vss" p.vss_wire_width p.vss_wire_length ~from_terminal:"vss_ring"
      ~to_terminal:"vss_pad" 0.0
  in
  let vdd_wire =
    wire "vdd" p.vdd_wire_width p.vdd_wire_length ~from_terminal:"vdd_local"
      ~to_terminal:"vdd_pad" 30.0
  in
  let vtune_wire =
    wire "vtune" p.vtune_wire_width p.vtune_wire_length
      ~from_terminal:"vtune_w" ~to_terminal:"vtune_pad" (-30.0)
  in
  (* the spiral inductor: drawn (unterminated) for area realism; its
     electrical macromodel (L, series R, substrate C) lives in the
     circuit netlist, as spiral inductors are characterized by EM
     solvers rather than wire extraction *)
  let spiral =
    L.Shape.path ~layer:(L.Layer.Metal 6) ~net:"tank"
      (G.Path.make ~width:8.0
         [ G.Point.v (-25.0) 75.0; G.Point.v 25.0 75.0; G.Point.v 25.0 115.0;
           G.Point.v (-25.0) 115.0; G.Point.v (-25.0) 83.0;
           G.Point.v 17.0 83.0; G.Point.v 17.0 107.0;
           G.Point.v (-17.0) 107.0; G.Point.v (-17.0) 91.0;
           G.Point.v 9.0 91.0 ])
  in
  let frame =
    Ring.contacts ~net:"frame" ~center
      ~inner:(2.0 *. (p.sub_offset +. p.sub_size +. 30.0)) ~strip:15.0
  in
  let pads =
    List.map
      (fun (net, y) ->
        L.Shape.rect ~layer:L.Layer.Pad ~net
          (G.Rect.of_center
             (G.Point.v (-.ring_edge -. p.vss_wire_length -. 40.0) y)
             ~width:60.0 ~height:60.0))
      [ ("vss", 0.0); ("vdd", 80.0); ("vtune", -80.0) ]
  in
  let cell =
    L.Cell.make ~name:"vco_chip"
      ([ bg "mn1" (-12.0); bg "mn2" 12.0; pmos_well; varactor_well; sub;
         inductor_probe; vss_stub; vss_wire; vdd_wire; vtune_wire; spiral ]
       @ guard_ring @ frame @ pads)
  in
  L.Layout.create ~top:"vco_chip" [ cell ]


let structure p =
  { Structure.layout = layout p; ground_net = "vss";
    substrate_node = "backgate:sub_ind"; ground_wire = ("vss_ring", "vss_pad");
    inject }

let elements p ~vtune =
  let t = p.tank in
  let c_fixed_half = t.Tank.c_fixed /. 2.0 in
  [
    (* supplies and references *)
    C.Element.Vsource { name = "vdd"; np = "vdd_pad"; nn = "0";
                        wave = C.Waveform.dc 1.8; ac_mag = 0.0 };
    C.Element.Vsource { name = "vtune"; np = "vtune_pad"; nn = "0";
                        wave = C.Waveform.dc vtune; ac_mag = 0.0 };
    C.Element.Resistor { name = "rprobe_vss"; n1 = "vss_pad"; n2 = "0";
                         ohms = p.probe_resistance };
  ]
  @ Structure.injection inject
  @ [
      (* bias *)
      C.Element.Isource { name = "itail"; np = "vdd_local"; nn = "vtop";
                          wave = C.Waveform.dc p.tail_current; ac_mag = 0.0 };
      C.Element.Capacitor { name = "cdec"; n1 = "vdd_local";
                            n2 = "vss_local"; farads = 5.0e-12 };
      (* cross-coupled pairs *)
      C.Element.Mosfet { name = "mp1"; drain = "tank_p"; gate = "tank_n";
                         source = "vtop"; bulk = "vdd_local"; model = p.pmos;
                         w = p.pair_w; l = p.pair_l; mult = 2 };
      C.Element.Mosfet { name = "mp2"; drain = "tank_n"; gate = "tank_p";
                         source = "vtop"; bulk = "vdd_local"; model = p.pmos;
                         w = p.pair_w; l = p.pair_l; mult = 2 };
      C.Element.Mosfet { name = "mn1"; drain = "tank_p"; gate = "tank_n";
                         source = "vss_local"; bulk = "backgate:mn1";
                         model = p.nmos; w = p.pair_w; l = p.pair_l;
                         mult = 1 };
      C.Element.Mosfet { name = "mn2"; drain = "tank_n"; gate = "tank_p";
                         source = "vss_local"; bulk = "backgate:mn2";
                         model = p.nmos; w = p.pair_w; l = p.pair_l;
                         mult = 1 };
      (* the LC tank *)
      C.Element.Inductor { name = "ltank"; n1 = "tank_p"; n2 = "ind_r";
                           henries = t.Tank.inductance };
      C.Element.Resistor { name = "rind"; n1 = "ind_r"; n2 = "tank_n";
                           ohms = p.inductor_series_r };
      C.Element.Capacitor { name = "cfix_p"; n1 = "tank_p"; n2 = "vss_local";
                            farads = c_fixed_half };
      C.Element.Capacitor { name = "cfix_n"; n1 = "tank_n"; n2 = "vss_local";
                            farads = c_fixed_half };
      C.Element.Varactor { name = "yvar_p"; n1 = "tank_p"; n2 = "vtune_w";
                           model = t.Tank.varactor;
                           mult = t.Tank.varactor_mult };
      C.Element.Varactor { name = "yvar_n"; n1 = "tank_n"; n2 = "vtune_w";
                           model = t.Tank.varactor;
                           mult = t.Tank.varactor_mult };
      (* inductor metal to substrate capacitance (EM-characterized) *)
      C.Element.Capacitor { name = "cind_p"; n1 = "tank_p";
                            n2 = "backgate:sub_ind";
                            farads = p.inductor_sub_cap };
      C.Element.Capacitor { name = "cind_n"; n1 = "tank_n";
                            n2 = "backgate:sub_ind";
                            farads = p.inductor_sub_cap };
    ]

let circuit p ~vtune = C.Netlist.create ~title:"lc-tank vco" (elements p ~vtune)

(* The supply-interconnect entry shares the vdd_local node with the
   PMOS n-well entry in this topology, so it is subsumed by Pmos_well
   here (listing both would double-count the same coupling). *)
let sensitive_nodes =
  [
    (Tank.Ground, "vss_local");
    (Tank.Backgate, "backgate:mn1");
    (Tank.Pmos_well, "vdd_local");
    (Tank.Varactor_well, "vtune_w");
    (Tank.Inductor_node, "backgate:sub_ind");
  ]

(* The VCO sits inside the chip's pad frame (paper Fig. 6); its seal
   ring substrate tap is hard-grounded through the many pads it
   touches.  The standalone NMOS structure (paper Fig. 4) has no such
   frame — its outer guard ring is its outermost feature. *)
let deck p ~vtune =
  { Structure.title = "vco merged impact model";
    elements =
      elements p ~vtune
      @ [ C.Element.Resistor { name = "rframe"; n1 = "frame"; n2 = "0";
                               ohms = 0.2 } ];
    (* every node the spur flow observes or the bias read-out touches
       (the sensitive nodes, the tuning pad and the tank) must survive
       reduction; most are device-touched anyway, but the injection node
       and the inductor back-gate are passive-only *)
    keep =
      List.sort_uniq String.compare
        (List.map snd sensitive_nodes @ [ inject; "vtune_pad"; "tank_p" ]) }

(* AM gains per entry (1/V): small, so AM stays far below FM as the
   paper observes; the ground and supply entries modulate the bias
   hardest. *)
let g_am_of_entry = function
  | Tank.Ground -> 0.5
  | Tank.Backgate -> 0.05
  | Tank.Pmos_well -> 0.3
  | Tank.Varactor_well -> 0.05
  | Tank.Inductor_node -> 0.1
  | Tank.Supply -> 0.3

let readout p dc =
  let module U = Sn_numerics.Units in
  let v = Sn_engine.Dc.voltage dc in
  let bias =
    { Tank.v_tune = v "vtune_pad"; v_gnd = v "vss_local";
      v_tank_cm = v "tank_p" -. v "vss_local"; v_backgate = v "backgate:mn1";
      v_nwell = v "vdd_local" }
  in
  let tank = p.tank in
  let fc = Tank.frequency tank bias in
  (* amplitude: current-limited level in the tank's parallel
     resistance, clipped by the supply, then the output coupling to
     the 50 ohm measurement chain *)
  let omega = U.two_pi *. fc in
  let q_l = omega *. tank.Tank.inductance /. p.inductor_series_r in
  let rp = q_l *. q_l *. p.inductor_series_r in
  let swing = Float.min (4.0 /. U.pi *. p.tail_current *. rp) (0.45 *. 1.8) in
  let entries =
    List.map
      (fun (entry, node) ->
        { Sn_rf.Impact.label = Tank.entry_name entry; node;
          k_hz_per_v = Tank.sensitivity tank bias entry;
          g_am_per_v = g_am_of_entry entry })
      sensitive_nodes
  in
  (* tank common-mode resistance for the inductor entry's capacitive
     transfer: the cross-coupled devices' output conductances *)
  let gds_of name mult =
    float_of_int mult
    *. (Sn_engine.Dc.mos_operating_point dc name).C.Mos_model.gds
  in
  let g_cm =
    gds_of "mn1" 1 +. gds_of "mn2" 1 +. gds_of "mp1" 2 +. gds_of "mp2" 2
  in
  ( { Sn_rf.Impact.carrier_freq = fc; amplitude = 0.5 *. swing; entries },
    if g_cm > 0.0 then 1.0 /. g_cm else 1.0e3 )
