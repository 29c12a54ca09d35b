(* Tests for sn_circuit: waveforms, device models, netlist rules, and
   the SPICE text format. *)

module C = Sn_circuit
module W = C.Waveform
module M = C.Mos_model
module V = C.Varactor_model

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* waveforms *)

let test_sin_wave () =
  let w = W.sin_wave ~offset:1.0 ~amplitude:2.0 ~freq:1.0 () in
  check_close 1e-9 "t=0" 1.0 (W.value w 0.0);
  check_close 1e-9 "quarter period" 3.0 (W.value w 0.25);
  check_close 1e-9 "dc value is offset" 1.0 (W.dc_value w)

let test_pulse_wave () =
  let w =
    W.pulse ~delay:1.0 ~rise:0.1 ~fall:0.1 ~v1:0.0 ~v2:5.0 ~width:1.0
      ~period:10.0 ()
  in
  check_float "before delay" 0.0 (W.value w 0.5);
  check_close 1e-9 "mid rise" 2.5 (W.value w 1.05);
  check_float "plateau" 5.0 (W.value w 1.5);
  check_close 1e-9 "mid fall" 2.5 (W.value w 2.15);
  check_float "after" 0.0 (W.value w 5.0);
  check_float "periodic" 5.0 (W.value w 11.5)

let test_pwl_wave () =
  let w = W.pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 2.0); (4.0, 0.0) ] in
  check_float "interp" 1.0 (W.value w 0.5);
  check_float "flat" 2.0 (W.value w 2.0);
  check_float "clamp" 0.0 (W.value w 10.0);
  Alcotest.check_raises "non-monotone"
    (Invalid_argument "Waveform.pwl: times must be strictly increasing")
    (fun () -> ignore (W.pwl [ (1.0, 0.0); (0.5, 1.0) ]))

(* ------------------------------------------------------------------ *)
(* MOS model *)

let nmos = M.default_nmos

let test_mos_cutoff () =
  let op = M.evaluate nmos ~w:10e-6 ~l:0.18e-6 ~vgs:0.2 ~vds:1.0 ~vbs:0.0 in
  Alcotest.(check bool) "cutoff" true (op.M.region = `Cutoff);
  check_float "no current" 0.0 op.M.id

let test_mos_saturation () =
  let op = M.evaluate nmos ~w:10e-6 ~l:0.18e-6 ~vgs:1.0 ~vds:1.5 ~vbs:0.0 in
  Alcotest.(check bool) "saturation" true (op.M.region = `Saturation);
  (* id = kp/2 W/L vov^2 (1 + lambda vds) *)
  let vov = 1.0 -. nmos.M.vt0 in
  let expected =
    0.5 *. nmos.M.kp *. (10.0 /. 0.18) *. vov *. vov
    *. (1.0 +. (nmos.M.lambda *. 1.5))
  in
  check_close 1e-9 "square law" expected op.M.id;
  Alcotest.(check bool) "gm > 0" true (op.M.gm > 0.0);
  Alcotest.(check bool) "gds > 0" true (op.M.gds > 0.0)

let test_mos_triode () =
  let op = M.evaluate nmos ~w:10e-6 ~l:0.18e-6 ~vgs:1.5 ~vds:0.1 ~vbs:0.0 in
  Alcotest.(check bool) "triode" true (op.M.region = `Triode)

let test_mos_body_effect () =
  (* reverse body bias raises vth and produces gmb > 0 *)
  let op0 = M.evaluate nmos ~w:10e-6 ~l:0.18e-6 ~vgs:1.0 ~vds:1.5 ~vbs:0.0 in
  let op1 =
    M.evaluate nmos ~w:10e-6 ~l:0.18e-6 ~vgs:1.0 ~vds:1.5 ~vbs:(-0.5)
  in
  Alcotest.(check bool) "vth rises" true (op1.M.vth > op0.M.vth);
  Alcotest.(check bool) "gmb > 0" true (op0.M.gmb > 0.0);
  (* gmb = gm * gamma / (2 sqrt (phi + vsb)) *)
  let expected = op0.M.gm *. nmos.M.gamma /. (2.0 *. sqrt nmos.M.phi) in
  check_close 1e-12 "gmb relation" expected op0.M.gmb

let test_mos_gmb_derivative () =
  (* gmb must match the numerical derivative dId/dVbs *)
  let f vbs =
    (M.evaluate nmos ~w:10e-6 ~l:0.18e-6 ~vgs:1.0 ~vds:1.5 ~vbs).M.id
  in
  let h = 1e-6 in
  let numeric = (f (-0.3 +. h) -. f (-0.3 -. h)) /. (2.0 *. h) in
  let op = M.evaluate nmos ~w:10e-6 ~l:0.18e-6 ~vgs:1.0 ~vds:1.5 ~vbs:(-0.3) in
  check_close 1e-7 "gmb = dId/dVbs" numeric op.M.gmb

let test_mos_gm_gds_derivatives () =
  let at ~vgs ~vds =
    (M.evaluate nmos ~w:10e-6 ~l:0.18e-6 ~vgs ~vds ~vbs:0.0).M.id
  in
  let h = 1e-6 in
  let gm_num = (at ~vgs:(1.0 +. h) ~vds:1.5 -. at ~vgs:(1.0 -. h) ~vds:1.5) /. (2.0 *. h) in
  let gds_num = (at ~vgs:1.0 ~vds:(1.5 +. h) -. at ~vgs:1.0 ~vds:(1.5 -. h)) /. (2.0 *. h) in
  let op = M.evaluate nmos ~w:10e-6 ~l:0.18e-6 ~vgs:1.0 ~vds:1.5 ~vbs:0.0 in
  check_close 1e-7 "gm" gm_num op.M.gm;
  check_close 1e-7 "gds" gds_num op.M.gds

let test_mos_invalid_geometry () =
  Alcotest.check_raises "w = 0"
    (Invalid_argument "Mos_model.evaluate: w, l must be > 0") (fun () ->
      ignore (M.evaluate nmos ~w:0.0 ~l:1e-6 ~vgs:1.0 ~vds:1.0 ~vbs:0.0))

(* ------------------------------------------------------------------ *)
(* varactor *)

let test_varactor_limits () =
  let m = V.default in
  Alcotest.(check bool) "C(-inf) -> cmin" true
    (Float.abs (V.capacitance m (-5.0) -. m.V.cmin) < 0.01 *. m.V.cmin);
  Alcotest.(check bool) "C(+inf) -> cmax" true
    (Float.abs (V.capacitance m 5.0 -. m.V.cmax) < 0.01 *. m.V.cmax);
  Alcotest.(check bool) "monotone" true
    (V.capacitance m 0.2 < V.capacitance m 0.6)

let test_varactor_charge_consistent () =
  (* dQ/dV = C within numerical accuracy, across the transition *)
  let m = V.default in
  let h = 1e-6 in
  List.iter
    (fun v ->
      let dq = (V.charge m (v +. h) -. V.charge m (v -. h)) /. (2.0 *. h) in
      check_close 1e-18 (Printf.sprintf "dQ/dV at %g" v) (V.capacitance m v) dq)
    [ -1.0; 0.0; 0.3; 0.45; 0.6; 1.5 ]

let test_varactor_sensitivity_peak () =
  let m = V.default in
  (* central-difference dC/dV *)
  let slope v =
    (V.capacitance m (v +. 1e-6) -. V.capacitance m (v -. 1e-6)) /. 2e-6
  in
  Alcotest.(check bool) "dC/dV maximal at v0" true
    (slope m.V.v0 > slope (m.V.v0 +. 0.3)
     && slope m.V.v0 > slope (m.V.v0 -. 0.3))

let prop_varactor_charge_monotone =
  QCheck.Test.make ~count:100 ~name:"varactor charge is increasing"
    QCheck.(pair (float_range (-2.0) 2.0) (float_range 0.001 2.0))
    (fun (v, dv) ->
      let m = V.default in
      V.charge m (v +. dv) > V.charge m v)

(* ------------------------------------------------------------------ *)
(* netlist construction *)

let r name n1 n2 ohms = C.Element.Resistor { name; n1; n2; ohms }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_netlist_rules () =
  (* duplicate names rejected *)
  (match C.Netlist.create [ r "r1" "a" "0" 1.0; r "r1" "b" "0" 2.0 ] with
   | exception C.Netlist.Invalid [ msg ] ->
     Alcotest.(check string) "duplicate" "duplicate element name: r1" msg
   | _ -> Alcotest.fail "expected Invalid");
  (* missing ground rejected *)
  (match C.Netlist.create [ r "r1" "a" "b" 1.0 ] with
   | exception C.Netlist.Invalid msgs ->
     Alcotest.(check bool) "ground message" true
       (List.exists (fun m -> contains_sub m "no ground") msgs)
   | _ -> Alcotest.fail "expected Invalid");
  (* negative values are legal (reduced-order macromodel branches)
     but zero / non-finite stay rejected *)
  (match C.Netlist.create [ r "r1" "a" "0" (-1.0) ] with
   | exception C.Netlist.Invalid _ ->
     Alcotest.fail "negative resistance should validate"
   | _ -> ());
  match C.Netlist.create [ r "r1" "a" "0" 0.0 ] with
  | exception C.Netlist.Invalid _ -> ()
  | _ -> Alcotest.fail "expected Invalid"

let test_netlist_queries () =
  let nl =
    C.Netlist.create ~title:"t"
      [ r "r1" "a" "0" 1.0; r "r2" "a" "b" 2.0 ]
  in
  Alcotest.(check (list string)) "nodes" [ "a"; "b" ] (C.Netlist.nodes nl);
  Alcotest.(check bool) "gnd is node" true (C.Netlist.mem_node nl "0");
  Alcotest.(check bool) "find" true
    (match C.Netlist.find nl "r2" with
     | C.Element.Resistor { ohms; _ } -> ohms = 2.0
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* SPICE text *)

let test_parse_number () =
  let cases =
    [ ("10", 10.0); ("1k", 1000.0); ("10meg", 1.0e7); ("120f", 120.0e-15);
      ("0.18u", 0.18e-6); ("2n", 2.0e-9); ("1m", 1.0e-3); ("3p", 3.0e-12);
      ("1e-3", 1.0e-3); ("1.5e3", 1500.0); ("-5", -5.0) ]
  in
  (* read back as the DC value of a source card *)
  let value s =
    match C.Netlist.elements (C.Spice.of_string ("v1 a 0 dc " ^ s ^ "\n")) with
    | [ C.Element.Vsource { wave = W.Dc v; _ } ] -> Some v
    | _ -> None
    | exception C.Spice.Parse_error _ -> None
  in
  List.iter
    (fun (s, expected) ->
      match value s with
      | Some v -> check_close (Float.abs expected *. 1e-12 +. 1e-30) s expected v
      | None -> Alcotest.failf "failed to parse %s" s)
    cases;
  Alcotest.(check bool) "garbage" true (value "xyz" = None)

let sample_deck =
  {|.title nmos test bench
* the paper's four-parallel-transistor measurement structure
.model nch nmos vt0=0.45 kp=300u gamma=0.45 phi=0.85 lambda=0.06 cdb=120f csb=200f
.model var1 varactor cmin=250f cmax=750f v0=0.45 vslope=0.35
Vdd vdd 0 DC 1.8
Vg g 0 DC 1.0
Vsub sub 0 SIN(0 0.178 10meg) AC 1
Rd vdd d 400
Rsub sub bulk 652
M1 d g 0 bulk nch W=10u L=0.18u M=4
Y1 tank 0 var1 M=2
L1 tank d 2n
C1 tank 0 500f
|}

let test_spice_parse () =
  let nl = C.Spice.of_string sample_deck in
  Alcotest.(check string) "title" "nmos test bench" (C.Netlist.title nl);
  Alcotest.(check int) "elements" 9 (C.Netlist.element_count nl);
  (match C.Netlist.find nl "m1" with
   | C.Element.Mosfet { w; mult; model; _ } ->
     check_close 1e-12 "W" 10e-6 w;
     Alcotest.(check int) "M" 4 mult;
     check_close 1e-20 "cdb" 120e-15 model.M.cdb
   | _ -> Alcotest.fail "m1 not a mosfet");
  match C.Netlist.find nl "vsub" with
  | C.Element.Vsource { wave = W.Sin { amplitude; freq; _ }; ac_mag; _ } ->
    check_close 1e-9 "amplitude" 0.178 amplitude;
    check_close 1.0 "freq" 10e6 freq;
    check_float "ac mag" 1.0 ac_mag
  | _ -> Alcotest.fail "vsub not parsed"

let test_spice_roundtrip () =
  let nl = C.Spice.of_string sample_deck in
  let nl2 = C.Spice.of_string (C.Spice.to_string nl) in
  Alcotest.(check int) "element count preserved"
    (C.Netlist.element_count nl) (C.Netlist.element_count nl2);
  Alcotest.(check (list string)) "nodes preserved" (C.Netlist.nodes nl)
    (C.Netlist.nodes nl2)

let test_spice_continuation () =
  let deck = ".title c\nR1 a 0\n+ 1k\n" in
  let nl = C.Spice.of_string deck in
  match C.Netlist.find nl "r1" with
  | C.Element.Resistor { ohms; _ } -> check_float "1k" 1000.0 ohms
  | _ -> Alcotest.fail "r1 missing"

let test_spice_errors () =
  let fails deck =
    match C.Spice.of_string deck with
    | exception C.Spice.Parse_error _ -> ()
    | exception C.Netlist.Invalid _ -> ()
    | _ -> Alcotest.failf "expected failure for %S" deck
  in
  fails "R1 a 0 notanumber\n";
  fails "M1 d g s b nosuchmodel W=1u L=1u\n";
  fails ".model m1 diode is=1\n";
  fails "V1 a 0 SIN(1 2)\n"

let test_spice_pragmas () =
  let deck =
    ".title t\n\
     *%snoise ignore dangling-node probe\n\
     %snoise ignore extreme-value\n\
     r1 a 0 1k\n"
  in
  let nl = C.Spice.of_string ~file:"t.sp" deck in
  (match C.Netlist.pragmas nl with
   | [ p1; p2 ] ->
     Alcotest.(check string) "code 1" "dangling-node" p1.C.Netlist.ignore_code;
     Alcotest.(check (option string)) "subject 1" (Some "probe")
       p1.C.Netlist.ignore_subject;
     Alcotest.(check string) "code 2" "extreme-value" p2.C.Netlist.ignore_code;
     Alcotest.(check (option string)) "subject 2" None
       p2.C.Netlist.ignore_subject
   | ps -> Alcotest.failf "expected 2 pragmas, got %d" (List.length ps));
  (match C.Netlist.element_loc nl "r1" with
   | Some l ->
     Alcotest.(check string) "file" "t.sp" l.C.Netlist.file;
     Alcotest.(check int) "line" 4 l.C.Netlist.line
   | None -> Alcotest.fail "r1 has no source location");
  (* pragmas survive the SPICE round trip *)
  let nl2 = C.Spice.of_string (C.Spice.to_string nl) in
  Alcotest.(check int) "roundtrip pragmas" 2
    (List.length (C.Netlist.pragmas nl2));
  (* a %snoise line with an unknown verb is a parse error, not a
     silently-ignored comment *)
  match C.Spice.of_string "*%snoise frobnicate x\nr1 a 0 1k\n" with
  | exception C.Spice.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad pragma accepted"

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "circuit.waveform",
      [
        Alcotest.test_case "sin" `Quick test_sin_wave;
        Alcotest.test_case "pulse" `Quick test_pulse_wave;
        Alcotest.test_case "pwl" `Quick test_pwl_wave;
      ] );
    ( "circuit.mos",
      [
        Alcotest.test_case "cutoff" `Quick test_mos_cutoff;
        Alcotest.test_case "saturation square law" `Quick test_mos_saturation;
        Alcotest.test_case "triode" `Quick test_mos_triode;
        Alcotest.test_case "body effect" `Quick test_mos_body_effect;
        Alcotest.test_case "gmb is dId/dVbs" `Quick test_mos_gmb_derivative;
        Alcotest.test_case "gm and gds derivatives" `Quick
          test_mos_gm_gds_derivatives;
        Alcotest.test_case "invalid geometry" `Quick test_mos_invalid_geometry;
      ] );
    ( "circuit.varactor",
      [
        Alcotest.test_case "C limits" `Quick test_varactor_limits;
        Alcotest.test_case "charge consistency" `Quick
          test_varactor_charge_consistent;
        Alcotest.test_case "sensitivity peak" `Quick
          test_varactor_sensitivity_peak;
        qcheck prop_varactor_charge_monotone;
      ] );
    ( "circuit.netlist",
      [
        Alcotest.test_case "validation rules" `Quick test_netlist_rules;
        Alcotest.test_case "queries" `Quick test_netlist_queries;
      ] );
    ( "circuit.spice",
      [
        Alcotest.test_case "number suffixes" `Quick test_parse_number;
        Alcotest.test_case "parse deck" `Quick test_spice_parse;
        Alcotest.test_case "round trip" `Quick test_spice_roundtrip;
        Alcotest.test_case "continuation lines" `Quick test_spice_continuation;
        Alcotest.test_case "parse errors" `Quick test_spice_errors;
        Alcotest.test_case "pragmas and locations" `Quick test_spice_pragmas;
      ] );
  ]
