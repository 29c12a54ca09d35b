(* Tests for sn_interconnect: square counting, capacitance extraction,
   via arrays, two-terminal resistance solving, and the Fig. 10
   widening operation. *)

module G = Sn_geometry
module L = Sn_layout
module T = Sn_tech.Tech
module Rc = Sn_interconnect.Rc_netlist
module Extract = Sn_interconnect.Extract

open Helpers

let total_capacitance nl =
  List.fold_left (fun acc (_, _, c) -> acc +. c) 0.0 (Rc.capacitors nl)

let straight_wire ?(net = "sig") ?(layer = L.Layer.Metal 1) ?(width = 1.0)
    ?(len = 100.0) ?(from_terminal = "a") ?(to_terminal = "b") () =
  L.Shape.path ~layer ~net ~from_terminal ~to_terminal
    (G.Path.make ~width [ G.Point.v 0.0 0.0; G.Point.v len 0.0 ])

let layout_of shapes =
  L.Layout.create ~top:"t" [ L.Cell.make ~name:"t" shapes ]

let extract ?options shapes =
  Extract.extract ?options ~tech:T.imec018 (layout_of shapes)

let test_straight_wire_resistance () =
  (* 100 um / 1 um = 100 squares of metal-1 at 0.08 ohm/sq = 8 ohm *)
  let r = extract [ straight_wire () ] in
  Alcotest.(check int) "one wire" 1 r.Extract.wires_extracted;
  check_close 1e-9 "squares" 100.0 r.Extract.total_squares;
  check_close 1e-9 "resistance" 8.0
    (Rc.resistance_between r.Extract.netlist "a" "b")

let test_wider_wire_less_resistance () =
  let r1 = extract [ straight_wire ~width:1.0 () ] in
  let r2 = extract [ straight_wire ~width:2.0 () ] in
  check_close 1e-9 "half the resistance"
    (Rc.resistance_between r1.Extract.netlist "a" "b" /. 2.0)
    (Rc.resistance_between r2.Extract.netlist "a" "b")

let test_bend_chain () =
  (* an L-shaped wire becomes two series segments with an interior
     node; total R = sum of per-segment squares *)
  let wire =
    L.Shape.path ~layer:(L.Layer.Metal 1) ~net:"sig" ~from_terminal:"a"
      ~to_terminal:"b"
      (G.Path.make ~width:2.0
         [ G.Point.v 0.0 0.0; G.Point.v 40.0 0.0; G.Point.v 40.0 60.0 ])
  in
  let r = extract [ wire ] in
  check_close 1e-9 "L-shape resistance" (0.08 *. (100.0 /. 2.0))
    (Rc.resistance_between r.Extract.netlist "a" "b");
  (* 1 interior node: a, b, bend, plus the substrate cap node *)
  Alcotest.(check bool) "interior node exists" true
    (List.exists
       (fun n -> String.length n > 3 && String.sub n 0 3 = "sig")
       (Rc.nodes r.Extract.netlist))

let test_metal6_lower_sheet_resistance () =
  let r1 = extract [ straight_wire ~layer:(L.Layer.Metal 1) () ] in
  let r6 = extract [ straight_wire ~layer:(L.Layer.Metal 6) () ] in
  Alcotest.(check bool) "thick top metal conducts better" true
    (Rc.resistance_between r6.Extract.netlist "a" "b"
     < Rc.resistance_between r1.Extract.netlist "a" "b")

let test_capacitance_extracted () =
  let r = extract [ straight_wire ~width:2.0 ~len:200.0 () ] in
  let c = total_capacitance r.Extract.netlist in
  (* area 400 um^2 at ~34.5 aF/um^2 plus fringe: tens of fF *)
  Alcotest.(check bool)
    (Printf.sprintf "C = %g plausible" c)
    true
    (c > 5.0e-15 && c < 200.0e-15);
  (* caps must land on the substrate node *)
  Alcotest.(check bool) "couples to substrate node" true
    (List.mem "sub_bulk" (Rc.nodes r.Extract.netlist))

let test_capacitance_scales_with_area () =
  let c_of len =
    total_capacitance
      (extract [ straight_wire ~len () ]).Extract.netlist
  in
  Alcotest.(check bool) "C grows ~linearly with length" true
    (let ratio = c_of 200.0 /. c_of 100.0 in
     ratio > 1.8 && ratio < 2.2)

let test_no_capacitance_option () =
  let options =
    { Extract.default_options with Extract.include_capacitance = false }
  in
  let r = extract ~options [ straight_wire () ] in
  check_close 1e-30 "no caps" 0.0 (total_capacitance r.Extract.netlist)

let test_resistance_ablation () =
  let options =
    { Extract.default_options with Extract.include_resistance = false }
  in
  let r = extract ~options [ straight_wire () ] in
  Alcotest.(check bool) "shorted wire" true
    (Rc.resistance_between r.Extract.netlist "a" "b" < 1.0e-4)

let test_via_array () =
  let via =
    L.Shape.path ~layer:(L.Layer.Via 1) ~net:"sig" ~from_terminal:"m1"
      ~to_terminal:"m2"
      (G.Path.make ~width:1.0 [ G.Point.v 0.0 0.0; G.Point.v 4.0 0.0 ])
  in
  let r = extract [ via ] in
  (* 4 um^2 strip at 0.25 um^2/cut = 16 cuts of 4 ohm each *)
  check_close 1e-9 "via array" 0.25
    (Rc.resistance_between r.Extract.netlist "m1" "m2")

let test_unterminated_skipped () =
  let deco =
    L.Shape.path ~layer:(L.Layer.Metal 1) ~net:"sig"
      (G.Path.make ~width:1.0 [ G.Point.v 0.0 0.0; G.Point.v 10.0 0.0 ])
  in
  let r = extract [ deco; straight_wire () ] in
  Alcotest.(check int) "skipped" 1 r.Extract.wires_skipped;
  Alcotest.(check int) "extracted" 1 r.Extract.wires_extracted

let test_rects_ignored () =
  let strap =
    L.Shape.rect ~layer:(L.Layer.Metal 1) ~net:"sig"
      (G.Rect.make 0.0 0.0 10.0 10.0)
  in
  let r = extract [ strap ] in
  Alcotest.(check int) "no wires" 0 r.Extract.wires_extracted

let test_unknown_metal_rejected () =
  match extract [ straight_wire ~layer:(L.Layer.Metal 9) () ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of metal 9"

let test_widen_net () =
  let shapes = [ straight_wire ~net:"gnd" (); straight_wire ~net:"sig"
                   ~from_terminal:"c" ~to_terminal:"d" () ] in
  let widened = Extract.widen_net ~net:"gnd" ~factor:2.0 (layout_of shapes) in
  let r = Extract.extract ~tech:T.imec018 widened in
  check_close 1e-9 "gnd halved" 4.0
    (Rc.resistance_between r.Extract.netlist "a" "b");
  check_close 1e-9 "sig untouched" 8.0
    (Rc.resistance_between r.Extract.netlist "c" "d")

let test_parallel_wires () =
  (* two wires sharing both terminals halve the resistance *)
  let w2 =
    L.Shape.path ~layer:(L.Layer.Metal 1) ~net:"sig" ~from_terminal:"a"
      ~to_terminal:"b"
      (G.Path.make ~width:1.0 [ G.Point.v 0.0 5.0; G.Point.v 100.0 5.0 ])
  in
  let r = extract [ straight_wire (); w2 ] in
  check_close 1e-9 "parallel combination" 4.0
    (Rc.resistance_between r.Extract.netlist "a" "b")

let test_resistance_between_errors () =
  let r = extract [ straight_wire () ] in
  Alcotest.check_raises "unknown node" Not_found (fun () ->
      ignore (Rc.resistance_between r.Extract.netlist "a" "nonexistent"));
  let two = extract [ straight_wire (); straight_wire ~net:"other"
                        ~from_terminal:"x" ~to_terminal:"y" () ] in
  match Rc.resistance_between two.Extract.netlist "a" "x" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected disconnected failure"

let prop_resistance_matches_formula =
  QCheck.Test.make ~count:50 ~name:"wire R = rho_sheet * L / W"
    QCheck.(pair (float_range 10.0 500.0) (float_range 0.5 10.0))
    (fun (len, width) ->
      let r = extract [ straight_wire ~len ~width () ] in
      let expected = 0.08 *. len /. width in
      let got = Rc.resistance_between r.Extract.netlist "a" "b" in
      Float.abs (got -. expected) < 1e-6 *. expected +. 1e-9)

let suites =
  [
    ( "interconnect",
      [
        Alcotest.test_case "straight wire" `Quick test_straight_wire_resistance;
        Alcotest.test_case "width scaling" `Quick test_wider_wire_less_resistance;
        Alcotest.test_case "bend chain" `Quick test_bend_chain;
        Alcotest.test_case "metal 6 vs metal 1" `Quick
          test_metal6_lower_sheet_resistance;
        Alcotest.test_case "capacitance extracted" `Quick
          test_capacitance_extracted;
        Alcotest.test_case "capacitance ~ area" `Quick
          test_capacitance_scales_with_area;
        Alcotest.test_case "capacitance off" `Quick test_no_capacitance_option;
        Alcotest.test_case "resistance ablation" `Quick test_resistance_ablation;
        Alcotest.test_case "via array" `Quick test_via_array;
        Alcotest.test_case "unterminated skipped" `Quick
          test_unterminated_skipped;
        Alcotest.test_case "rect straps ignored" `Quick test_rects_ignored;
        Alcotest.test_case "unknown metal" `Quick test_unknown_metal_rejected;
        Alcotest.test_case "widen_net" `Quick test_widen_net;
        Alcotest.test_case "parallel wires" `Quick test_parallel_wires;
        Alcotest.test_case "error paths" `Quick test_resistance_between_errors;
        qcheck prop_resistance_matches_formula;
      ] );
  ]
