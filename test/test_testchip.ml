(* Tests for sn_testchip: guard-ring geometry, the generated layouts'
   structural invariants, the device netlists, and text round trips of
   the generated layouts. *)

module G = Sn_geometry
module L = Sn_layout
module Ring = Sn_testchip.Ring
module NS = Sn_testchip.Nmos_structure
module VC = Sn_testchip.Vco_chip
module C = Sn_circuit

let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_geometry () =
  let rects =
    Ring.rects ~center:G.Point.zero ~inner_width:10.0 ~inner_height:10.0
      ~strip:2.0
  in
  Alcotest.(check int) "4 strips" 4 (List.length rects);
  let area = List.fold_left (fun a r -> a +. G.Rect.area r) 0.0 rects in
  (* closed form: outer square minus the hole *)
  check_close 1e-9 "area matches closed form"
    ((14.0 *. 14.0) -. (10.0 *. 10.0))
    area;
  (* the hole is really hollow *)
  Alcotest.(check bool) "center not covered" false
    (List.exists (fun r -> G.Rect.contains_point r G.Point.zero) rects);
  (* strips don't overlap each other *)
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.iter
    (fun (a, b) ->
      match G.Rect.intersection a b with
      | None -> ()
      | Some o ->
        Alcotest.(check (float 1e-9)) "zero-area touch" 0.0 (G.Rect.area o))
    (pairs rects)

let test_ring_invalid () =
  Alcotest.check_raises "bad strip"
    (Invalid_argument "Ring.rects: dimensions must be > 0") (fun () ->
      ignore
        (Ring.rects ~center:G.Point.zero ~inner_width:1.0 ~inner_height:1.0
           ~strip:0.0))

(* ------------------------------------------------------------------ *)
(* NMOS structure layout *)

let nmos_layout = lazy (NS.structure NS.default).Sn_testchip.Structure.layout

let shapes_on layout layer =
  List.filter
    (fun (s : L.Shape.t) -> L.Layer.equal s.L.Shape.layer layer)
    (L.Layout.flatten layout)

let test_nmos_layout_ports () =
  let ports = Sn_substrate.Port.of_layout (Lazy.force nmos_layout) in
  let names = List.map (fun p -> p.Sn_substrate.Port.name) ports in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("has port " ^ expected) true
        (List.mem expected names))
    [ "backgate:m1"; "mos_gr"; "gr"; "sub_inject" ]

let test_nmos_layout_rings_hollow () =
  let ports = Sn_substrate.Port.of_layout (Lazy.force nmos_layout) in
  let mos_gr =
    List.find (fun p -> p.Sn_substrate.Port.name = "mos_gr") ports
  in
  (* the transistor (at the origin) must not be covered by its ring *)
  Alcotest.(check bool) "device not under ring" false
    (List.exists
       (fun r -> G.Rect.contains_point r G.Point.zero)
       mos_gr.Sn_substrate.Port.region);
  Alcotest.(check int) "4 strips" 4
    (List.length mos_gr.Sn_substrate.Port.region)

let test_nmos_sub_inside_outer_ring () =
  let p = NS.default in
  (* SUB contact must sit between the rings: outside MOS GR, inside GR *)
  let sub_outer = p.NS.sub_offset +. (p.NS.sub_size /. 2.0) in
  Alcotest.(check bool) "inside GR" true (sub_outer < p.NS.outer_ring_inner);
  let mos_edge =
    p.NS.device_half_pitch +. p.NS.mos_ring_gap +. p.NS.mos_ring_strip
  in
  Alcotest.(check bool) "outside MOS GR" true
    (p.NS.sub_offset -. (p.NS.sub_size /. 2.0) > mos_edge)

let test_nmos_ground_wire_terminals () =
  let wires = shapes_on (Lazy.force nmos_layout) (L.Layer.Metal 1) in
  let terminals =
    List.filter_map
      (fun (s : L.Shape.t) ->
        match s.L.Shape.geometry with
        | L.Shape.Path { from_terminal = Some a; to_terminal = Some b; _ } ->
          Some (a, b)
        | L.Shape.Path _ | L.Shape.Rect _ -> None)
      wires
  in
  Alcotest.(check bool) "mos_gr -> gnd_pad wire" true
    (List.mem ("mos_gr", "gnd_pad") terminals);
  Alcotest.(check bool) "gr -> gr_pad wire" true
    (List.mem ("gr", "gr_pad") terminals)

let test_nmos_layout_io_roundtrip () =
  let l = Lazy.force nmos_layout in
  let l2 = L.Layout_io.of_string (L.Layout_io.to_string l) in
  Alcotest.(check int) "shape count" (List.length (L.Layout.flatten l))
    (List.length (L.Layout.flatten l2));
  Alcotest.(check (list string)) "nets" (L.Layout.nets l) (L.Layout.nets l2);
  (* ports derived from the round-tripped layout are identical *)
  let names l =
    List.map (fun p -> p.Sn_substrate.Port.name) (Sn_substrate.Port.of_layout l)
  in
  Alcotest.(check (list string)) "ports preserved" (names l) (names l2)

let test_nmos_device_netlist () =
  let nl =
    C.Netlist.create
      (NS.biased NS.default ~vgs:0.8 ~vds:0.9).Sn_testchip.Structure.elements
  in
  (match C.Netlist.find nl "m1" with
   | C.Element.Mosfet { mult; bulk; source; _ } ->
     Alcotest.(check int) "4 parallel transistors" 4 mult;
     Alcotest.(check string) "bulk is the probe port" "backgate:m1" bulk;
     Alcotest.(check string) "source on the quiet pad" "gnd_pad" source
   | _ -> Alcotest.fail "m1 missing");
  match C.Netlist.find nl "vbias" with
  | C.Element.Vsource { wave; _ } ->
    check_close 1e-12 "vds" 0.9 (C.Waveform.dc_value wave)
  | _ -> Alcotest.fail "vbias missing"

(* ------------------------------------------------------------------ *)
(* VCO chip *)

let vco_layout = lazy (VC.layout VC.default)

let test_vco_layout_ports () =
  let ports = Sn_substrate.Port.of_layout (Lazy.force vco_layout) in
  let names = List.map (fun p -> p.Sn_substrate.Port.name) ports in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("has port " ^ expected) true
        (List.mem expected names))
    [ "backgate:mn1"; "backgate:mn2"; "backgate:sub_ind"; "vss_ring";
      "sub_inject"; "frame"; "nwell:vdd_local"; "nwell:vtune_w" ]

let test_vco_wells_are_wells () =
  let ports = Sn_substrate.Port.of_layout (Lazy.force vco_layout) in
  List.iter
    (fun (p : Sn_substrate.Port.t) ->
      let is_well =
        String.length p.Sn_substrate.Port.name >= 6
        && String.sub p.Sn_substrate.Port.name 0 6 = "nwell:"
      in
      if is_well then
        Alcotest.(check bool)
          (p.Sn_substrate.Port.name ^ " kind")
          true
          (p.Sn_substrate.Port.kind = Sn_substrate.Port.Well))
    ports

let test_vco_circuit_structure () =
  let nl = VC.circuit VC.default ~vtune:0.45 in
  (* cross-coupling: mn1 gate on tank_n, drain on tank_p; mirrored *)
  (match C.Netlist.find nl "mn1" with
   | C.Element.Mosfet { drain = "tank_p"; gate = "tank_n"; _ } -> ()
   | _ -> Alcotest.fail "mn1 not cross-coupled");
  (match C.Netlist.find nl "mn2" with
   | C.Element.Mosfet { drain = "tank_n"; gate = "tank_p"; _ } -> ()
   | _ -> Alcotest.fail "mn2 not cross-coupled");
  (* two varactors to the tuning well *)
  (match C.Netlist.find nl "yvar_p" with
   | C.Element.Varactor { n2 = "vtune_w"; _ } -> ()
   | _ -> Alcotest.fail "varactor well node wrong");
  (* the inductor substrate caps land on the probe under the coil *)
  match C.Netlist.find nl "cind_p" with
  | C.Element.Capacitor { n2 = "backgate:sub_ind"; farads; _ } ->
    check_close 1e-18 "C_ind = 120 fF" 120.0e-15 farads
  | _ -> Alcotest.fail "cind_p missing"

let test_vco_dc_solvable () =
  (* the schematic plus ideal pad straps (standing in for the
     extracted wires) has a DC solution: tank nodes symmetric, supply
     sensible *)
  let straps =
    [ C.Element.Resistor { name = "strap_vss"; n1 = "vss_pad";
                           n2 = "vss_local"; ohms = 0.1 };
      C.Element.Resistor { name = "strap_vdd"; n1 = "vdd_pad";
                           n2 = "vdd_local"; ohms = 0.1 };
      C.Element.Resistor { name = "strap_vt"; n1 = "vtune_pad";
                           n2 = "vtune_w"; ohms = 0.1 };
      C.Element.Resistor { name = "strap_sub"; n1 = "sub_inject";
                           n2 = "0"; ohms = 1000.0 } ]
  in
  let nl =
    C.Netlist.create
      (C.Netlist.elements (VC.circuit VC.default ~vtune:0.45) @ straps)
  in
  let s = Sn_engine.Dc.solve nl in
  let vp = Sn_engine.Dc.voltage s "tank_p"
  and vn = Sn_engine.Dc.voltage s "tank_n" in
  Alcotest.(check bool) "tank symmetric" true (Float.abs (vp -. vn) < 1e-3);
  Alcotest.(check bool) "tank between rails" true (vp > 0.0 && vp < 1.8)

let test_vco_spiral_is_decorative () =
  (* the drawn spiral must not be extracted (its macromodel is in the
     circuit); it carries no terminals *)
  let report =
    Sn_interconnect.Extract.extract ~tech:Sn_tech.Tech.imec018
      (Lazy.force vco_layout)
  in
  Alcotest.(check bool) "some wires skipped (the spiral)" true
    (report.Sn_interconnect.Extract.wires_skipped >= 1)

let test_vco_layout_io_roundtrip () =
  let l = Lazy.force vco_layout in
  let l2 = L.Layout_io.of_string (L.Layout_io.to_string l) in
  Alcotest.(check int) "shape count" (List.length (L.Layout.flatten l))
    (List.length (L.Layout.flatten l2))

let test_sensitive_nodes_exist_in_circuit () =
  let nl = VC.circuit VC.default ~vtune:0.0 in
  List.iter
    (fun (_, node) ->
      (* every sensitive node must be either a circuit node or a
         substrate port name (they merge by name) *)
      let in_circuit = C.Netlist.mem_node nl node in
      let is_port =
        List.exists
          (fun p -> p.Sn_substrate.Port.name = node)
          (Sn_substrate.Port.of_layout (Lazy.force vco_layout))
      in
      Alcotest.(check bool) (node ^ " resolvable") true (in_circuit || is_port))
    VC.sensitive_nodes

let suites =
  [
    ( "testchip.ring",
      [
        Alcotest.test_case "frame decomposition" `Quick test_ring_geometry;
        Alcotest.test_case "validation" `Quick test_ring_invalid;
      ] );
    ( "testchip.nmos",
      [
        Alcotest.test_case "ports derived" `Quick test_nmos_layout_ports;
        Alcotest.test_case "rings hollow" `Quick test_nmos_layout_rings_hollow;
        Alcotest.test_case "SUB between rings" `Quick
          test_nmos_sub_inside_outer_ring;
        Alcotest.test_case "ground wire terminals" `Quick
          test_nmos_ground_wire_terminals;
        Alcotest.test_case "layout io round trip" `Quick
          test_nmos_layout_io_roundtrip;
        Alcotest.test_case "device netlist" `Quick test_nmos_device_netlist;
      ] );
    ( "testchip.vco",
      [
        Alcotest.test_case "ports derived" `Quick test_vco_layout_ports;
        Alcotest.test_case "wells are wells" `Quick test_vco_wells_are_wells;
        Alcotest.test_case "circuit structure" `Quick test_vco_circuit_structure;
        Alcotest.test_case "schematic DC solvable" `Quick test_vco_dc_solvable;
        Alcotest.test_case "spiral decorative" `Quick
          test_vco_spiral_is_decorative;
        Alcotest.test_case "layout io round trip" `Quick
          test_vco_layout_io_roundtrip;
        Alcotest.test_case "sensitive nodes resolvable" `Quick
          test_sensitive_nodes_exist_in_circuit;
      ] );
  ]
