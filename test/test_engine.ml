(* Tests for sn_engine: DC, AC and transient analyses checked against
   closed-form circuit theory. *)

module C = Sn_circuit
module E = C.Element
module W = C.Waveform
module M = C.Mos_model
module U = Sn_numerics.Units
module Dc = Sn_engine.Dc
module Ac = Sn_engine.Ac
module Tran = Sn_engine.Tran
module Goertzel = Sn_numerics.Goertzel

let check_close tol = Alcotest.(check (float tol))

(* the current through a voltage-defined element, read off the
   solution vector *)
let branch_current nl s name =
  (Dc.unknowns s).(Sn_engine.Mna.branch_slot (Sn_engine.Mna.build nl) name)

let r name n1 n2 ohms = E.Resistor { name; n1; n2; ohms }
let c name n1 n2 farads = E.Capacitor { name; n1; n2; farads }
let l name n1 n2 henries = E.Inductor { name; n1; n2; henries }

let vdc name np nn v = E.Vsource { name; np; nn; wave = W.dc v; ac_mag = 0.0 }

let vac name np nn ?(dc = 0.0) mag =
  E.Vsource { name; np; nn; wave = W.dc dc; ac_mag = mag }

let idc name np nn v = E.Isource { name; np; nn; wave = W.dc v; ac_mag = 0.0 }

(* ------------------------------------------------------------------ *)
(* DC *)

let test_dc_divider () =
  let nl =
    C.Netlist.create
      [ vdc "v1" "in" "0" 10.0; r "r1" "in" "mid" 1000.0;
        r "r2" "mid" "0" 3000.0 ]
  in
  let s = Dc.solve nl in
  check_close 1e-6 "divider" 7.5 (Dc.voltage s "mid");
  check_close 1e-9 "source current" (-.(10.0 -. 7.5) /. 1000.0)
    (branch_current nl s "v1")

let test_dc_current_source () =
  let nl = C.Netlist.create [ idc "i1" "0" "a" 1.0e-3; r "r1" "a" "0" 2000.0 ] in
  let s = Dc.solve nl in
  check_close 1e-6 "IR drop" 2.0 (Dc.voltage s "a")

let test_dc_inductor_short () =
  let nl =
    C.Netlist.create
      [ vdc "v1" "in" "0" 5.0; r "r1" "in" "a" 1000.0; l "l1" "a" "b" 1e-9;
        r "r2" "b" "0" 1000.0 ]
  in
  let s = Dc.solve nl in
  check_close 1e-6 "inductor shorts" 2.5 (Dc.voltage s "a");
  check_close 1e-6 "same both sides" 2.5 (Dc.voltage s "b");
  check_close 1e-9 "inductor current" 2.5e-3 (branch_current nl s "l1")

let test_dc_capacitor_open () =
  let nl =
    C.Netlist.create
      [ vdc "v1" "in" "0" 5.0; r "r1" "in" "a" 1000.0; c "c1" "a" "0" 1e-9 ]
  in
  let s = Dc.solve nl in
  check_close 1e-5 "cap open: no drop" 5.0 (Dc.voltage s "a")

let test_dc_vcvs () =
  let nl =
    C.Netlist.create
      [ vdc "v1" "in" "0" 1.0;
        E.Vcvs { name = "e1"; np = "out"; nn = "0"; cp = "in"; cn = "0";
                 gain = 4.0 };
        r "rl" "out" "0" 1000.0 ]
  in
  let s = Dc.solve nl in
  check_close 1e-6 "gain 4" 4.0 (Dc.voltage s "out")

let test_dc_vccs () =
  let nl =
    C.Netlist.create
      [ vdc "v1" "in" "0" 2.0;
        E.Vccs { name = "g1"; np = "out"; nn = "0"; cp = "in"; cn = "0";
                 gm = 1.0e-3 };
        r "rl" "out" "0" 500.0 ]
  in
  let s = Dc.solve nl in
  (* i = gm * 2 V = 2 mA leaving node out -> v_out = -2mA * 500 = -1 V *)
  check_close 1e-6 "vccs polarity" (-1.0) (Dc.voltage s "out")

let diode_connected_bias =
  [ vdc "vdd" "vdd" "0" 1.8;
    r "rd" "vdd" "d" 1000.0;
    E.Mosfet { name = "m1"; drain = "d"; gate = "d"; source = "0";
               bulk = "0"; model = M.default_nmos; w = 10e-6; l = 1e-6;
               mult = 1 } ]

let test_dc_diode_connected_nmos () =
  let nl = C.Netlist.create diode_connected_bias in
  let s = Dc.solve nl in
  let vd = Dc.voltage s "d" in
  (* diode-connected: vgs = vds > vth, KCL: (1.8 - vd)/1k = id(vd) *)
  Alcotest.(check bool) "above threshold" true (vd > M.default_nmos.M.vt0);
  Alcotest.(check bool) "below supply" true (vd < 1.8);
  let op = Dc.mos_operating_point s "m1" in
  let kcl_err = ((1.8 -. vd) /. 1000.0) -. op.M.id in
  Alcotest.(check bool) "KCL satisfied" true (Float.abs kcl_err < 1e-7)

let test_dc_pmos_mirror_polarity () =
  (* PMOS with source at vdd, gate grounded: strongly on; drain pulls
     toward vdd through the device against a resistor to ground *)
  let nl =
    C.Netlist.create
      [ vdc "vdd" "vdd" "0" 1.8;
        E.Mosfet { name = "mp"; drain = "d"; gate = "0"; source = "vdd";
                   bulk = "vdd"; model = M.default_pmos; w = 50e-6;
                   l = 0.5e-6; mult = 1 };
        r "rl" "d" "0" 10000.0 ]
  in
  let s = Dc.solve nl in
  Alcotest.(check bool) "pmos pulls high" true (Dc.voltage s "d" > 1.2)

let test_dc_mos_reverse_conduction () =
  (* drain below source: the device conducts symmetrically *)
  let nl =
    C.Netlist.create
      [ vdc "vg" "g" "0" 1.8; vdc "vs" "s" "0" 1.0;
        E.Mosfet { name = "m1"; drain = "d"; gate = "g"; source = "s";
                   bulk = "0"; model = M.default_nmos; w = 10e-6; l = 1e-6;
                   mult = 1 };
        r "rd" "d" "0" 100.0 ]
  in
  let s = Dc.solve nl in
  (* source at 1 V drives current out of the drain into rd: vd between
     0 and 1 V *)
  let vd = Dc.voltage s "d" in
  Alcotest.(check bool) (Printf.sprintf "vd = %g in (0, 1)" vd) true
    (vd > 0.0 && vd < 1.0)

let test_dc_bridge_with_gmin_path () =
  (* a node connected only through capacitors still solves thanks to gmin *)
  let nl =
    C.Netlist.create
      [ vdc "v1" "in" "0" 1.0; c "c1" "in" "float" 1e-12;
        c "c2" "float" "0" 1e-12; r "r1" "in" "0" 1000.0 ]
  in
  let s = Dc.solve nl in
  Alcotest.(check bool) "floating node finite" true
    (Float.is_finite (Dc.voltage s "float"))

(* ------------------------------------------------------------------ *)
(* AC *)

let test_ac_rc_lowpass () =
  let rv = 1000.0 and cv = 1e-9 in
  let f3db = 1.0 /. (U.two_pi *. rv *. cv) in
  let nl =
    C.Netlist.create
      [ vac "v1" "in" "0" 1.0; r "r1" "in" "out" rv; c "c1" "out" "0" cv ]
  in
  let s = Ac.solve nl ~freq:f3db in
  let db s = U.db_of_ratio (Complex.norm (Ac.voltage s "out")) in
  check_close 0.01 "-3 dB at corner" (-3.0103) (db s);
  let s10 = Ac.solve nl ~freq:(10.0 *. f3db) in
  check_close 0.2 "-20 dB/dec" (-20.04) (db s10)

let test_ac_lc_resonance () =
  let lv = 2e-9 and cv = 1.4e-12 in
  let f0 = 1.0 /. (U.two_pi *. sqrt (lv *. cv)) in
  let nl =
    C.Netlist.create
      [ E.Isource { name = "i1"; np = "0"; nn = "tank"; wave = W.dc 0.0;
                    ac_mag = 1.0e-3 };
        l "l1" "tank" "0" lv; c "c1" "tank" "0" cv;
        r "rp" "tank" "0" 500.0 ]
  in
  (* at resonance the tank is purely resistive: |v| = i * rp *)
  let s = Ac.solve nl ~freq:f0 in
  check_close 1e-3 "resonant magnitude" 0.5 (Complex.norm (Ac.voltage s "tank"));
  (* off resonance the magnitude drops *)
  let s_off = Ac.solve nl ~freq:(1.3 *. f0) in
  Alcotest.(check bool) "off-resonance lower" true
    (Complex.norm (Ac.voltage s_off "tank") < 0.3)

let common_source_bias vg =
  [ vdc "vdd" "vdd" "0" 1.8; vdc "vg" "g" "0" vg;
    E.Vsource { name = "vsig"; np = "gac"; nn = "g"; wave = W.dc 0.0;
                ac_mag = 1.0 };
    r "rd" "vdd" "d" 2000.0;
    E.Mosfet { name = "m1"; drain = "d"; gate = "gac"; source = "0";
               bulk = "0"; model = M.default_nmos; w = 20e-6; l = 1e-6;
               mult = 1 } ]

let test_ac_common_source_gain () =
  let nl = C.Netlist.create (common_source_bias 0.9) in
  let dc = Dc.solve nl in
  let op = Dc.mos_operating_point dc "m1" in
  let expected_gain = op.M.gm *. (1.0 /. ((1.0 /. 2000.0) +. op.M.gds)) in
  let s = Ac.solve ~dc nl ~freq:1.0e3 in
  let gain = Complex.norm (Ac.voltage s "d") in
  check_close (0.01 *. expected_gain) "gm * (RD || ro)" expected_gain gain;
  (* inverting stage: phase ~ 180 deg at low frequency *)
  Alcotest.(check bool) "inverting" true ((Ac.voltage s "d").Complex.re < 0.0)

let test_ac_backgate_transfer () =
  (* the paper's Figure 3 mechanism in miniature: drive the bulk, see
     gmb * (RD || ro) at the drain *)
  let nl =
    C.Netlist.create
      [ vdc "vdd" "vdd" "0" 1.8; vdc "vg" "g" "0" 0.9;
        E.Vsource { name = "vbulk"; np = "b"; nn = "0"; wave = W.dc 0.0;
                    ac_mag = 1.0 };
        r "rd" "vdd" "d" 2000.0;
        E.Mosfet { name = "m1"; drain = "d"; gate = "g"; source = "0";
                   bulk = "b"; model = M.default_nmos; w = 20e-6; l = 1e-6;
                   mult = 1 } ]
  in
  let dc = Dc.solve nl in
  let op = Dc.mos_operating_point dc "m1" in
  let expected = op.M.gmb *. (1.0 /. ((1.0 /. 2000.0) +. op.M.gds)) in
  let s = Ac.solve ~dc nl ~freq:1.0e3 in
  check_close (0.02 *. expected) "gmb * (RD || ro)" expected
    (Complex.norm (Ac.voltage s "d"))

let test_ac_sweep_shape () =
  let nl =
    C.Netlist.create
      [ vac "v1" "in" "0" 1.0; r "r1" "in" "out" 1000.0; c "c1" "out" "0" 1e-9 ]
  in
  let freqs = Sn_numerics.Sweep.logspace 1e3 1e9 25 in
  let points = Ac.sweep nl ~freqs ~nodes:[ "out" ] in
  let dbs =
    Array.map
      (fun (p : Ac.sweep_point) ->
        U.db_of_ratio (Complex.norm (List.assoc "out" p.Ac.values)))
      points
  in
  (* monotone decreasing magnitude for a first-order low-pass *)
  let ok = ref true in
  for i = 0 to Array.length dbs - 2 do
    if dbs.(i + 1) > dbs.(i) +. 1e-9 then ok := false
  done;
  Alcotest.(check bool) "monotone rolloff" true !ok;
  (* asymptotic slope -20 dB/dec *)
  let tail_f = Array.sub freqs 15 10 and tail_db = Array.sub dbs 15 10 in
  check_close 0.5 "tail slope"
    (-20.0)
    (Sn_numerics.Stats.slope_db_per_decade tail_f tail_db)

(* the merged VCO testchip deck (MOSFETs, varactors, inductor branches,
   substrate network, interconnect) and its operating point, shared by
   the sparse-engine tests below *)
let vco_fixture =
  lazy
    (let f = Snoise.Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.0 in
     let nl = Snoise.Flow.vco_merged f in
     (nl, Dc.solve nl))

(* the sparse frequency-domain engine against the dense reference
   formulation, on the full VCO testchip deck (MOSFETs, varactors,
   inductor branches, substrate network) *)
let test_ac_sparse_matches_dense_vco () =
  let module VC = Sn_testchip.Vco_chip in
  let module Mna = Sn_engine.Mna in
  let module Sp = Sn_engine.Stamp_plan in
  let nl, dc = Lazy.force vco_fixture in
  let mna = Mna.build nl in
  let nodes = List.sort_uniq String.compare (List.map snd VC.sensitive_nodes) in
  let freqs = Sn_numerics.Sweep.logspace 1e6 1e10 9 in
  let points = Ac.sweep ~dc nl ~freqs ~nodes in
  Array.iteri
    (fun k (p : Ac.sweep_point) ->
      let omega = U.two_pi *. freqs.(k) in
      let a, rhs = Ac.system mna dc ~omega in
      let x = Test_numerics.dense_csolve a rhs in
      List.iter
        (fun (node, v) ->
          let slot = Mna.node_slot mna node in
          let v_ref = if slot < 0 then Complex.zero else x.(slot) in
          let err = Complex.norm (Complex.sub v v_ref) in
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %.3g Hz (err %.2e)" node freqs.(k) err)
            true
            (err <= 1e-9 *. Float.max 1.0 (Complex.norm v_ref)))
        p.Ac.values)
    points

(* parallel sweeps must be byte-identical to sequential ones, and a
   whole sweep must run on a single symbolic factorization *)
let test_ac_sweep_parallel_identical () =
  let module VC = Sn_testchip.Vco_chip in
  let module Pool = Sn_engine.Pool in
  let module Splu = Sn_numerics.Splu in
  let nl, dc = Lazy.force vco_fixture in
  let nodes = List.sort_uniq String.compare (List.map snd VC.sensitive_nodes) in
  let freqs = Sn_numerics.Sweep.logspace 1e5 1e9 33 in
  let sweep jobs =
    let pool = Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    Ac.sweep ~pool ~dc nl ~freqs ~nodes
  in
  Splu.reset_stats ();
  let seq = sweep 1 in
  Alcotest.(check int) "one master factorization" 1 (Splu.factorizations ());
  let par = sweep 4 in
  Alcotest.(check bool) "jobs=4 byte-identical to jobs=1" true (seq = par)

(* An 18 x 18 RC mesh (326 unknowns, every node loaded by 0.5 pF),
   driven from one corner through 50 ohm and observed at the far
   corner, where the transfer spans decades over the band: the sparse
   AC sweep and the adjoint noise analysis agree with the dense
   formulation to 1e-9 relative at four points from 1 MHz to 1 GHz.
   The dense reference assembles the full complex system per point and
   solves it (noise: its materialized transpose) with dense LU. *)
let test_mesh_sparse_matches_dense () =
  let module Mna = Sn_engine.Mna in
  let module Noise = Sn_engine.Noise in
  let side = 18 in
  let name i j = Printf.sprintf "n%d_%d" i j in
  let cell i j =
    let here = name i j in
    let link tag there ohms = r (Printf.sprintf "%s%d_%d" tag i j) here there ohms in
    (if i < side - 1 then [ link "rr" (name (i + 1) j) 100.0 ] else [])
    @ (if j < side - 1 then [ link "rd" (name i (j + 1)) 130.0 ] else [])
    @ [ c (Printf.sprintf "cg%d_%d" i j) here "0" 0.5e-12 ]
  in
  let mesh =
    List.concat (List.init side (fun i -> List.concat (List.init side (cell i))))
  in
  let nl =
    C.Netlist.create
      (vac "vin" "emf" "0" 1.0 :: r "rsrc" "emf" (name 0 0) 50.0 :: mesh)
  in
  let out = name (side - 1) (side - 1) in
  let mna = Mna.build nl in
  let dc = Dc.solve_mna mna in
  let slot = Mna.node_slot mna in
  let freqs = Sn_numerics.Sweep.logspace 1.0e6 1.0e9 120 in
  let freqs = Array.map (fun k -> freqs.(k)) [| 0; 40; 80; 119 |] in
  let points = Ac.sweep ~dc nl ~freqs ~nodes:[ out ] in
  let noise = Array.of_list (Noise.analyze ~dc nl ~output:out ~freqs) in
  let e_out =
    Array.init (Mna.dim mna) (fun i ->
        if i = slot out then Complex.one else Complex.zero)
  in
  let four_kt = 4.0 *. 1.380649e-23 *. 300.0 in
  Array.iteri
    (fun k f ->
      let a, rhs = Ac.system mna dc ~omega:(U.two_pi *. f) in
      let v_ref = (Test_numerics.dense_csolve a rhs).(slot out) in
      let v = List.assoc out points.(k).Ac.values in
      let ac_err = Complex.norm (Complex.sub v v_ref) /. Complex.norm v_ref in
      Alcotest.(check bool)
        (Printf.sprintf "ac @ %.3g Hz: rel err %.2e <= 1e-9" f ac_err)
        true (ac_err <= 1e-9);
      let n = Array.length a in
      let at = Array.init n (fun i -> Array.init n (fun j -> a.(j).(i))) in
      let y = Test_numerics.dense_csolve at e_out in
      let g n = if slot n < 0 then Complex.zero else y.(slot n) in
      let psd_ref =
        List.fold_left
          (fun acc e ->
            match e with
            | E.Resistor { n1; n2; ohms; _ } ->
              let h = Complex.sub (g n1) (g n2) in
              acc +. (Complex.norm2 h *. four_kt /. ohms)
            | _ -> acc)
          0.0 (C.Netlist.elements nl)
      in
      let noise_err =
        Float.abs (noise.(k).Noise.total_psd -. psd_ref) /. psd_ref
      in
      Alcotest.(check bool)
        (Printf.sprintf "noise @ %.3g Hz: rel err %.2e <= 1e-9" f noise_err)
        true (noise_err <= 1e-9))
    freqs

(* an already-expired deadline stops a warm AC sweep of a compiled
   plan at an iteration boundary instead of running it to the end *)
let test_expired_deadline_stops_sweep () =
  let module Cancel = Sn_numerics.Cancel in
  let ladder =
    List.concat
      (List.init 60 (fun k ->
           let a = if k = 0 then "in" else Printf.sprintf "n%d" k in
           let b = Printf.sprintf "n%d" (k + 1) in
           [ r (Printf.sprintf "r%d" k) a b 100.0;
             c (Printf.sprintf "c%d" k) b "0" 1e-12 ]))
  in
  let nl = C.Netlist.create (vac "vin" "in" "0" 1.0 :: ladder) in
  let acp = Snoise.Flow.(compiled_ac_plan (compile_deck ~lint:false nl)) in
  let freqs = Array.init 64 (fun i -> 1.0e6 *. (1.0 +. float_of_int i)) in
  let sweep () = Ac.sweep_plan acp ~freqs ~nodes:[ "n60" ] in
  Alcotest.(check int) "unarmed sweep runs every point" 64
    (Array.length (sweep ()));
  let expired = Cancel.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  match Cancel.with_token expired sweep with
  | _ -> Alcotest.fail "expired deadline did not cancel the sweep"
  | exception Cancel.Cancelled t ->
    Alcotest.(check string) "reason" "deadline" (Cancel.reason t)

(* ------------------------------------------------------------------ *)
(* Transient *)

let test_tran_rc_step () =
  let rv = 1000.0 and cv = 1e-6 in
  let tau = rv *. cv in
  let nl =
    C.Netlist.create
      [ E.Vsource { name = "v1"; np = "in"; nn = "0";
                    wave = W.pulse ~v1:0.0 ~v2:1.0 ~width:1.0 ~period:2.0 ();
                    ac_mag = 0.0 };
        r "r1" "in" "out" rv; c "c1" "out" "0" cv ]
  in
  let opts = { Tran.default_options with Tran.ic = Tran.Uic [] } in
  let d = Tran.simulate ~options:opts ~tstop:(5.0 *. tau) ~dt:(tau /. 200.0) nl in
  let out = Tran.node d "out" in
  let analytic t = 1.0 -. exp (-.t /. tau) in
  let max_err = ref 0.0 in
  Array.iteri
    (fun k t ->
      max_err := Float.max !max_err (Float.abs (out.(k) -. analytic t)))
    d.Tran.times;
  Alcotest.(check bool)
    (Printf.sprintf "max error %.4f < 1%%" !max_err)
    true (!max_err < 0.01)

(* the waveform of [name] from the first sample at or after [t0]:
   the start-up transient dropped before a spectral estimate *)
let samples_after (d : Tran.dataset) ~t0 name =
  let w = Tran.node d name in
  let start = ref 0 in
  Array.iteri (fun k t -> if t < t0 then start := k + 1) d.Tran.times;
  Array.sub w !start (Array.length w - !start)

let test_tran_sine_steady_state () =
  let nl =
    C.Netlist.create
      [ E.Vsource { name = "v1"; np = "in"; nn = "0";
                    wave = W.sin_wave ~amplitude:1.0 ~freq:1.0e3 ();
                    ac_mag = 0.0 };
        r "r1" "in" "out" 1000.0; r "r2" "out" "0" 1000.0 ]
  in
  let d = Tran.simulate ~tstop:4e-3 ~dt:1e-6 nl in
  let out = samples_after d ~t0:1e-3 "out" in
  let amp = Goertzel.amplitude ~fs:1e6 ~f:1e3 out in
  check_close 1e-3 "resistive divider of sine" 0.5 amp

let test_tran_lc_ringdown_frequency () =
  (* start the tank charged (UIC) and measure the ring frequency *)
  let lv = 1e-6 and cv = 1e-9 in
  let f0 = 1.0 /. (U.two_pi *. sqrt (lv *. cv)) in
  let nl =
    C.Netlist.create
      [ l "l1" "tank" "0" lv; c "c1" "tank" "0" cv;
        r "rp" "tank" "0" 100e3 ]
  in
  let opts =
    { Tran.default_options with Tran.ic = Tran.Uic [ ("tank", 1.0) ] }
  in
  let periods = 40.0 in
  let dt = 1.0 /. (f0 *. 200.0) in
  let d = Tran.simulate ~options:opts ~tstop:(periods /. f0) ~dt nl in
  let w = Tran.node d "tank" in
  let fs = 1.0 /. dt in
  let spec = Sn_numerics.Fft.amplitude_spectrum ~fs w in
  let fpk, _ = Test_numerics.peak_near spec ~f:f0 ~span:(0.2 *. f0) in
  check_close (0.02 *. f0) "ring frequency" f0 fpk

let test_tran_trapezoidal_beats_be () =
  (* integrate one sine period; trapezoidal should track the divider
     more accurately than backward Euler on the RC corner *)
  let rv = 1000.0 and cv = 1e-6 in
  let f = 1.0 /. (U.two_pi *. rv *. cv) in
  let nl =
    C.Netlist.create
      [ E.Vsource { name = "v1"; np = "in"; nn = "0";
                    wave = W.sin_wave ~amplitude:1.0 ~freq:f ();
                    ac_mag = 0.0 };
        r "r1" "in" "out" rv; c "c1" "out" "0" cv ]
  in
  let run method_ =
    let opts = { Tran.default_options with Tran.method_ } in
    let d = Tran.simulate ~options:opts ~tstop:(4.0 /. f) ~dt:(0.02 /. f) nl in
    let out = samples_after d ~t0:(2.0 /. f) "out" in
    let fs = f /. 0.02 in
    Goertzel.amplitude ~fs ~f out
  in
  let target = 1.0 /. sqrt 2.0 in
  let err_be = Float.abs (run Tran.Backward_euler -. target) in
  let err_trap = Float.abs (run Tran.Trapezoidal -. target) in
  Alcotest.(check bool)
    (Printf.sprintf "trap %.5f < be %.5f" err_trap err_be)
    true (err_trap < err_be)

let test_tran_varactor_modulates () =
  (* a varactor driven through a resistor charges like an RC with
     voltage-dependent C: final value still reaches the source *)
  let nl =
    C.Netlist.create
      [ E.Vsource { name = "v1"; np = "in"; nn = "0";
                    wave = W.pulse ~v1:0.0 ~v2:1.0 ~width:1.0 ~period:2.0 ();
                    ac_mag = 0.0 };
        r "r1" "in" "out" 10e3;
        E.Varactor { name = "y1"; n1 = "out"; n2 = "0";
                     model = C.Varactor_model.default; mult = 1 } ]
  in
  let opts = { Tran.default_options with Tran.ic = Tran.Uic [] } in
  let d = Tran.simulate ~options:opts ~tstop:1e-6 ~dt:1e-9 nl in
  let out = Tran.node d "out" in
  let final = out.(Array.length out - 1) in
  check_close 0.01 "settles to source" 1.0 final;
  (* monotone rise *)
  let ok = ref true in
  for i = 0 to Array.length out - 2 do
    if out.(i + 1) < out.(i) -. 1e-9 then ok := false
  done;
  Alcotest.(check bool) "monotone charge-up" true !ok

(* ------------------------------------------------------------------ *)
(* Noise *)

module Noise = Sn_engine.Noise

let test_noise_resistor_divider () =
  (* two equal resistors to ground: output noise = 4kT (R/2) *)
  let rv = 10.0e3 in
  let nl =
    C.Netlist.create
      [ vdc "v1" "in" "0" 1.0; r "r1" "in" "out" rv; r "r2" "out" "0" rv ]
  in
  let pts = Noise.analyze nl ~output:"out" ~freqs:[| 1.0e3 |] in
  let expected = 4.0 *. 1.380649e-23 *. 300.0 *. (rv /. 2.0) in
  match pts with
  | [ p ] ->
    check_close (0.01 *. expected) "4kT(R||R)" expected p.Noise.total_psd;
    (* both resistors contribute equally *)
    (match p.Noise.contributions with
     | [ a; b ] -> check_close (0.01 *. a.Noise.psd) "equal split" a.Noise.psd b.Noise.psd
     | _ -> Alcotest.fail "expected 2 contributions")
  | _ -> Alcotest.fail "expected 1 point"

let test_noise_ktc () =
  (* integrated noise of an RC filter is kT/C, independent of R *)
  let check_ktc rv cv =
    let f3db = 1.0 /. (U.two_pi *. rv *. cv) in
    let nl =
      C.Netlist.create
        [ vdc "v1" "in" "0" 1.0; r "r1" "in" "out" rv; c "c1" "out" "0" cv ]
    in
    let freqs = Sn_numerics.Sweep.logspace (f3db /. 1000.0) (1000.0 *. f3db) 400 in
    let pts = Noise.analyze nl ~output:"out" ~freqs in
    let v_rms = Noise.total_rms pts in
    let expected = sqrt (1.380649e-23 *. 300.0 /. cv) in
    Alcotest.(check bool)
      (Printf.sprintf "kT/C: %.3g vs %.3g" v_rms expected)
      true
      (Float.abs (v_rms -. expected) /. expected < 0.05)
  in
  check_ktc 1.0e3 1.0e-12;
  check_ktc 1.0e6 1.0e-12

let test_noise_mos_channel () =
  (* a biased common-source stage adds 4kT gamma gm |RD||ro|^2 *)
  let nl = C.Netlist.create (common_source_bias 0.9) in
  let dc = Dc.solve nl in
  let op = Dc.mos_operating_point dc "m1" in
  let r_out = 1.0 /. ((1.0 /. 2000.0) +. op.M.gds) in
  let expected_mos =
    4.0 *. 1.380649e-23 *. 300.0 *. (2.0 /. 3.0) *. op.M.gm *. r_out *. r_out
  in
  let pts = Noise.analyze ~dc nl ~output:"d" ~freqs:[| 1.0e3 |] in
  match pts with
  | [ p ] ->
    let mos_contrib =
      List.find (fun c -> c.Noise.element = "m1") p.Noise.contributions
    in
    check_close (0.03 *. expected_mos) "channel noise" expected_mos
      mos_contrib.Noise.psd
  | _ -> Alcotest.fail "expected 1 point"

let test_noise_filtered_rolloff () =
  (* beyond the RC corner the PSD falls 20 dB/dec *)
  let nl =
    C.Netlist.create
      [ vdc "v1" "in" "0" 1.0; r "r1" "in" "out" 1.0e3; c "c1" "out" "0" 1.0e-9 ]
  in
  let f3db = 1.0 /. (U.two_pi *. 1.0e3 *. 1.0e-9) in
  let pts =
    Noise.analyze nl ~output:"out" ~freqs:[| 10.0 *. f3db; 100.0 *. f3db |]
  in
  match pts with
  | [ a; b ] ->
    let drop = 10.0 *. log10 (a.Noise.total_psd /. b.Noise.total_psd) in
    check_close 0.3 "20 dB/dec in power" 20.0 drop
  | _ -> Alcotest.fail "expected 2 points"

(* the adjoint transfer (one transpose solve on the shared
   factorization) against brute force: one dense forward solve per
   noise source *)
let test_noise_adjoint_matches_bruteforce () =
  let module Mna = Sn_engine.Mna in
  let module Sp = Sn_engine.Stamp_plan in
  let nl = C.Netlist.create (common_source_bias 0.9) in
  let dc = Dc.solve nl in
  let mna = Mna.build nl in
  let freq = 2.5e6 in
  let p =
    match Noise.analyze ~dc nl ~output:"d" ~freqs:[| freq |] with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected 1 point"
  in
  let a, _ = Ac.system mna dc ~omega:(U.two_pi *. freq) in
  let out_slot = Mna.node_slot mna "d" in
  let four_kt = 4.0 *. 1.380649e-23 *. 300.0 in
  let sources =
    List.filter_map
      (fun e ->
        match e with
        | E.Resistor { name; n1; n2; ohms } ->
          Some (name, n1, n2, four_kt /. ohms)
        | E.Mosfet { name; drain; source; mult; _ } ->
          let op = Dc.mos_operating_point dc name in
          let gm = float_of_int mult *. op.M.gm in
          if gm > 0.0 then
            Some (name, drain, source, four_kt *. (2.0 /. 3.0) *. gm)
          else None
        | _ -> None)
      (C.Netlist.elements nl)
  in
  Alcotest.(check int) "every source contributes"
    (List.length sources)
    (List.length p.Noise.contributions);
  List.iter
    (fun (name, np, nn, psd_i) ->
      let rhs = Array.make (Mna.dim mna) Complex.zero in
      let add n v =
        let s = Mna.node_slot mna n in
        if s >= 0 then
          rhs.(s) <- Complex.add rhs.(s) { Complex.re = v; im = 0.0 }
      in
      add np 1.0;
      add nn (-1.0);
      let x = Test_numerics.dense_csolve a rhs in
      let vout = if out_slot < 0 then Complex.zero else x.(out_slot) in
      let expected = Complex.norm2 vout *. psd_i in
      let got =
        (List.find (fun c -> c.Noise.element = name) p.Noise.contributions)
          .Noise.psd
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s adjoint vs forward" name)
        true
        (Float.abs (got -. expected) <= 1e-9 *. Float.max expected 1e-30))
    sources

(* ------------------------------------------------------------------ *)
(* Two-port S-parameters *)

module Twoport = Sn_engine.Twoport

let test_sparams_through () =
  (* a direct through connection: S21 = 1, S11 = 0 *)
  let nl = C.Netlist.create [ r "rthru" "p1" "p2" 1e-6; r "rld" "p1" "0" 1e12 ] in
  match Twoport.analyze nl ~port1:"p1" ~port2:"p2" ~freqs:[| 1.0e6 |] with
  | [ s ] ->
    check_close 1e-3 "S21 = 1" 1.0 (Complex.norm s.Twoport.s21);
    Alcotest.(check bool) "S11 ~ 0" true (Complex.norm s.Twoport.s11 < 1e-3)
  | _ -> Alcotest.fail "expected one point"

let test_sparams_series_resistor () =
  (* series R between 50-ohm ports: S21 = 2 z0 / (2 z0 + R) *)
  let rv = 100.0 in
  let nl = C.Netlist.create [ r "rs" "p1" "p2" rv; r "rld" "p1" "0" 1e12 ] in
  match Twoport.analyze nl ~port1:"p1" ~port2:"p2" ~freqs:[| 1.0e6 |] with
  | [ s ] ->
    let expected = 2.0 *. 50.0 /. ((2.0 *. 50.0) +. rv) in
    check_close 1e-6 "S21 attenuator" expected (Complex.norm s.Twoport.s21);
    (* reciprocity of a passive network *)
    check_close 1e-9 "S12 = S21" (Complex.norm s.Twoport.s21)
      (Complex.norm s.Twoport.s12);
    (* matched-ish: S11 = R / (R + 2 z0) *)
    check_close 1e-6 "S11" (rv /. (rv +. 100.0)) (Complex.norm s.Twoport.s11)
  | _ -> Alcotest.fail "expected one point"

let test_sparams_isolation_of_substrate_model () =
  (* substrate macromodel between two contacts: a passive resistive
     network with reciprocal S21 = S12 and finite isolation *)
  let module G = Sn_geometry in
  let module Port = Sn_substrate.Port in
  let a = Port.v ~name:"p1" ~kind:Port.Resistive [ G.Rect.make 10.0 45.0 20.0 55.0 ] in
  let b = Port.v ~name:"p2" ~kind:Port.Resistive [ G.Rect.make 70.0 45.0 80.0 55.0 ] in
  let cfg = { Sn_substrate.Grid.nx = 20; ny = 20; z_per_layer = Some [1;2;2;1] } in
  let m =
    Sn_substrate.Extractor.extract ~config:cfg ~tech:Sn_tech.Tech.imec018
      ~die:(G.Rect.make 0.0 0.0 100.0 100.0) [ a; b ]
  in
  let nl =
    C.Netlist.create
      (Snoise.Merge.of_macromodel m
      @ [ r "rref" "p1" "0" 1.0e12 ])
  in
  match Twoport.analyze nl ~port1:"p1" ~port2:"p2" ~freqs:[| 1.0e6 |] with
  | [ s ] ->
    let iso = Twoport.isolation_db s in
    Alcotest.(check bool)
      (Printf.sprintf "isolation %.1f dB plausible" iso)
      true (iso > 3.0 && iso < 80.0);
    check_close 1e-9 "reciprocal" (Complex.norm s.Twoport.s21)
      (Complex.norm s.Twoport.s12)
  | _ -> Alcotest.fail "expected one point"

let test_tran_invalid_args () =
  let nl = C.Netlist.create [ r "r1" "a" "0" 1.0; vdc "v1" "a" "0" 1.0 ] in
  Alcotest.check_raises "bad dt"
    (Invalid_argument "Tran.simulate: tstop and dt must be > 0") (fun () ->
      ignore (Tran.simulate ~tstop:1.0 ~dt:0.0 nl))

let test_dc_op_report () =
  let nl = C.Netlist.create (common_source_bias 0.9) in
  let s = Dc.solve nl in
  let text = Format.asprintf "%a" Dc.pp s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true
        (let n = String.length text and m = String.length needle in
         let rec go i = i + m <= n && (String.sub text i m = needle || go (i + 1)) in
         go 0))
    [ "operating point"; "v(d"; "m1"; "saturation"; "i(vdd" ]

(* ------------------------------------------------------------------ *)
(* property-based engine checks *)

let random_ladder st n =
  (* a ladder of n series resistors with shunt resistors to ground *)
  let series =
    List.init n (fun k ->
        r (Printf.sprintf "rs%d" k)
          (if k = 0 then "in" else Printf.sprintf "n%d" k)
          (Printf.sprintf "n%d" (k + 1))
          (10.0 +. Random.State.float st 1000.0))
  in
  let shunts =
    List.init n (fun k ->
        r (Printf.sprintf "rp%d" k)
          (Printf.sprintf "n%d" (k + 1))
          "0"
          (10.0 +. Random.State.float st 1000.0))
  in
  series @ shunts

let prop_dc_superposition =
  QCheck.Test.make ~count:40 ~name:"DC superposition on random ladders"
    QCheck.(pair (int_range 1 6) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n |] in
      let ladder = random_ladder st n in
      let v1 = 1.0 +. Random.State.float st 5.0 in
      let i2 = Random.State.float st 1e-3 in
      let probe = Printf.sprintf "n%d" n in
      let solve src_v src_i =
        let nl =
          C.Netlist.create
            (ladder
            @ [ vdc "v1" "in" "0" src_v;
                E.Isource { name = "i2"; np = "0"; nn = probe;
                            wave = W.dc src_i; ac_mag = 0.0 } ])
        in
        Dc.voltage (Dc.solve nl) probe
      in
      let both = solve v1 i2 in
      let only_v = solve v1 0.0 in
      let only_i = solve 0.0 i2 in
      Float.abs (both -. (only_v +. only_i)) < 1e-7 *. (Float.abs both +. 1.0))

let prop_ac_passive_divider_bounded =
  QCheck.Test.make ~count:40 ~name:"passive RC transfer never exceeds 1"
    QCheck.(triple (int_range 1 5) (int_range 0 1000) (float_range 2.0 8.0))
    (fun (n, seed, logf) ->
      let st = Random.State.make [| seed; n; 7 |] in
      let ladder = random_ladder st n in
      let caps =
        List.init n (fun k ->
            c (Printf.sprintf "c%d" k)
              (Printf.sprintf "n%d" (k + 1))
              "0"
              (1e-12 +. Random.State.float st 1e-9))
      in
      let nl = C.Netlist.create (vac "v1" "in" "0" 1.0 :: ladder @ caps) in
      let s = Ac.solve nl ~freq:(10.0 ** logf) in
      let probe = Printf.sprintf "n%d" n in
      Complex.norm (Ac.voltage s probe) <= 1.0 +. 1e-9)

let prop_resistive_network_reciprocity =
  QCheck.Test.make ~count:40 ~name:"resistive network reciprocity"
    QCheck.(pair (int_range 2 6) (int_range 0 1000))
    (fun (n, seed) ->
      (* transfer impedance v(b)/i(a) = v(a)/i(b) *)
      let st = Random.State.make [| seed; n; 13 |] in
      let ladder = random_ladder st n in
      let inject at =
        let nl =
          C.Netlist.create
            (ladder
            @ [ E.Isource { name = "ii"; np = "0"; nn = at;
                            wave = W.dc 1e-3; ac_mag = 0.0 } ])
        in
        Dc.solve nl
      in
      let a = "n1" and b = Printf.sprintf "n%d" n in
      let fwd = Dc.voltage (inject a) b in
      let rev = Dc.voltage (inject b) a in
      Float.abs (fwd -. rev) < 1e-9 *. (Float.abs fwd +. 1e-12))

(* ------------------------------------------------------------------ *)
(* optimized hot path: the linear fast path must reproduce the Newton
   path exactly, and a linear fixed-step run must factor exactly once *)

module Splu = Sn_numerics.Splu

(* RLC ladder: linear, with an inductor branch row, sized by [stages]
   so both the dense and the sparse assembler paths get covered *)
let ladder_netlist ~stages =
  let node k = if k = 0 then "0" else Printf.sprintf "n%d" k in
  let elements =
    E.Vsource
      { name = "vin"; np = "drive"; nn = "0";
        wave = W.sin_wave ~amplitude:1.0 ~freq:20.0e6 (); ac_mag = 0.0 }
    :: l "lin" "drive" (node 1) 5.0e-9
    :: List.concat
         (List.init stages (fun k ->
              let k = k + 1 in
              [ r (Printf.sprintf "r%d" k) (node k) (node (k + 1))
                  (50.0 +. float_of_int k);
                c (Printf.sprintf "c%d" k) (node (k + 1)) "0" 2.0e-12 ]))
  in
  C.Netlist.create ~title:"RLC ladder" elements

let test_tran_fast_path_matches_newton () =
  List.iter
    (fun stages ->
      let nl = ladder_netlist ~stages in
      let run fast =
        Tran.simulate
          ~options:
            { Tran.default_options with
              Tran.ic = Tran.Uic [];
              linear_fast_path = fast }
          ~tstop:1.0e-7 ~dt:1.0e-9 nl
      in
      let fast = run true and newton = run false in
      let max_diff = ref 0.0 in
      Array.iteri
        (fun row wave ->
          Array.iteri
            (fun k v ->
              max_diff :=
                Float.max !max_diff
                  (Float.abs (v -. newton.Tran.data.(row).(k))))
            wave)
        fast.Tran.data;
      Alcotest.(check bool)
        (Printf.sprintf "stages=%d max diff %.3e" stages !max_diff)
        true
        (!max_diff < 1e-9))
    [ 6; 80 ]

let test_tran_single_factorization () =
  (* Uic skips the DC solve so the transient owns every counted
     factorization *)
  let nl = ladder_netlist ~stages:80 in
  Splu.reset_stats ();
  let d =
    Tran.simulate
      ~options:{ Tran.default_options with Tran.ic = Tran.Uic [] }
      ~tstop:1.0e-7 ~dt:1.0e-9 nl
  in
  Alcotest.(check int) "one LU factorization" 1 (Splu.factorizations ());
  Alcotest.(check int) "no refactorizations" 0 (Splu.refactorizations ());
  Alcotest.(check bool)
    (Printf.sprintf "one solve per step (%d solves, %d steps)"
       (Splu.solves ())
       (Array.length d.Tran.times - 1))
    true
    (Splu.solves () = Array.length d.Tran.times - 1)

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "engine.dc",
      [
        Alcotest.test_case "divider" `Quick test_dc_divider;
        Alcotest.test_case "current source" `Quick test_dc_current_source;
        Alcotest.test_case "inductor short" `Quick test_dc_inductor_short;
        Alcotest.test_case "capacitor open" `Quick test_dc_capacitor_open;
        Alcotest.test_case "vcvs" `Quick test_dc_vcvs;
        Alcotest.test_case "vccs" `Quick test_dc_vccs;
        Alcotest.test_case "diode-connected nmos" `Quick
          test_dc_diode_connected_nmos;
        Alcotest.test_case "pmos polarity" `Quick test_dc_pmos_mirror_polarity;
        Alcotest.test_case "reverse conduction" `Quick
          test_dc_mos_reverse_conduction;
        Alcotest.test_case "gmin rescues floating node" `Quick
          test_dc_bridge_with_gmin_path;
      ] );
    ( "engine.ac",
      [
        Alcotest.test_case "rc low-pass corner" `Quick test_ac_rc_lowpass;
        Alcotest.test_case "lc resonance" `Quick test_ac_lc_resonance;
        Alcotest.test_case "common-source gain" `Quick
          test_ac_common_source_gain;
        Alcotest.test_case "back-gate transfer" `Quick
          test_ac_backgate_transfer;
        Alcotest.test_case "sweep rolloff" `Quick test_ac_sweep_shape;
        Alcotest.test_case "sparse engine matches dense on VCO deck" `Quick
          test_ac_sparse_matches_dense_vco;
        Alcotest.test_case "parallel sweep byte-identical" `Quick
          test_ac_sweep_parallel_identical;
        Alcotest.test_case "sparse AC and noise match dense on a mesh" `Quick
          test_mesh_sparse_matches_dense;
        Alcotest.test_case "expired deadline stops a sweep" `Quick
          test_expired_deadline_stops_sweep;
      ] );
    ( "engine.tran",
      [
        Alcotest.test_case "rc step response" `Quick test_tran_rc_step;
        Alcotest.test_case "sine steady state" `Quick
          test_tran_sine_steady_state;
        Alcotest.test_case "lc ring frequency" `Quick
          test_tran_lc_ringdown_frequency;
        Alcotest.test_case "trap beats BE" `Quick
          test_tran_trapezoidal_beats_be;
        Alcotest.test_case "varactor charging" `Quick
          test_tran_varactor_modulates;
        Alcotest.test_case "fast path matches Newton path" `Quick
          test_tran_fast_path_matches_newton;
        Alcotest.test_case "linear fixed step factors once" `Quick
          test_tran_single_factorization;
      ] );
    ( "engine.twoport",
      [
        Alcotest.test_case "through" `Quick test_sparams_through;
        Alcotest.test_case "series attenuator" `Quick
          test_sparams_series_resistor;
        Alcotest.test_case "substrate isolation" `Quick
          test_sparams_isolation_of_substrate_model;
      ] );
    ( "engine.noise",
      [
        Alcotest.test_case "resistor divider 4kT(R||R)" `Quick
          test_noise_resistor_divider;
        Alcotest.test_case "kT/C integral" `Quick test_noise_ktc;
        Alcotest.test_case "MOS channel noise" `Quick test_noise_mos_channel;
        Alcotest.test_case "adjoint matches brute force" `Quick
          test_noise_adjoint_matches_bruteforce;
        Alcotest.test_case "filtered rolloff" `Quick
          test_noise_filtered_rolloff;
        Alcotest.test_case "argument validation" `Quick test_tran_invalid_args;
      ] );
    ( "engine.report",
      [ Alcotest.test_case "op printout" `Quick test_dc_op_report ] );
    ( "engine.properties",
      [
        qcheck prop_dc_superposition;
        qcheck prop_ac_passive_divider_bounded;
        qcheck prop_resistive_network_reciprocity;
      ] );
  ]
