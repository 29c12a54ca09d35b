module C = Sn_circuit
module E = C.Element
module W = C.Waveform
module Tran = Sn_engine.Tran
module N = Sn_numerics
module U = N.Units

type params = {
  inductance : float;
  c_fixed : float;
  varactor : C.Varactor_model.t;
  tank_q_resistor : float;
  tail_current : float;
  nmos_w : float;
  pmos_w : float;
  channel_l : float;
}

(* A varactor swinging 1-3 nF around 0.9 V: a strong, easily resolved
   tuning gain at the scaled frequency. *)
let scaled_varactor =
  { C.Varactor_model.name = "varscaled"; cmin = 1.0e-9; cmax = 3.0e-9;
    v0 = 0.0; vslope = 0.6 }

let default =
  {
    inductance = 1.0e-6;
    c_fixed = 2.0e-9;
    varactor = scaled_varactor;
    tank_q_resistor = 5000.0;
    tail_current = 2.0e-3;
    nmos_w = 40.0e-6;
    pmos_w = 100.0e-6;
    channel_l = 0.5e-6;
  }

let netlist ?tune_tone p ~vtune =
  let tune_wave =
    match tune_tone with
    | None -> W.dc vtune
    | Some (amplitude, freq) -> W.sin_wave ~offset:vtune ~amplitude ~freq ()
  in
  C.Netlist.create ~title:"scaled transistor-level oscillator"
    [
      E.Vsource { name = "vdd"; np = "vdd"; nn = "0"; wave = W.dc 1.8;
                  ac_mag = 0.0 };
      E.Vsource { name = "vtune"; np = "vt"; nn = "0"; wave = tune_wave;
                  ac_mag = 0.0 };
      E.Isource { name = "itail"; np = "vdd"; nn = "top";
                  wave = W.dc p.tail_current; ac_mag = 0.0 };
      E.Mosfet { name = "mp1"; drain = "tp"; gate = "tn"; source = "top";
                 bulk = "vdd"; model = C.Mos_model.default_pmos;
                 w = p.pmos_w; l = p.channel_l; mult = 1 };
      E.Mosfet { name = "mp2"; drain = "tn"; gate = "tp"; source = "top";
                 bulk = "vdd"; model = C.Mos_model.default_pmos;
                 w = p.pmos_w; l = p.channel_l; mult = 1 };
      E.Mosfet { name = "mn1"; drain = "tp"; gate = "tn"; source = "0";
                 bulk = "0"; model = C.Mos_model.default_nmos; w = p.nmos_w;
                 l = p.channel_l; mult = 1 };
      E.Mosfet { name = "mn2"; drain = "tn"; gate = "tp"; source = "0";
                 bulk = "0"; model = C.Mos_model.default_nmos; w = p.nmos_w;
                 l = p.channel_l; mult = 1 };
      E.Inductor { name = "lt"; n1 = "tp"; n2 = "tn";
                   henries = p.inductance };
      E.Resistor { name = "rq"; n1 = "tp"; n2 = "tn";
                   ohms = p.tank_q_resistor };
      E.Capacitor { name = "cp"; n1 = "tp"; n2 = "0"; farads = p.c_fixed };
      E.Capacitor { name = "cn"; n1 = "tn"; n2 = "0"; farads = p.c_fixed };
      E.Varactor { name = "yp"; n1 = "tp"; n2 = "vt"; model = p.varactor;
                   mult = 1 };
      E.Varactor { name = "yn"; n1 = "tn"; n2 = "vt"; model = p.varactor;
                   mult = 1 };
    ]

(* Differential tank: the single-ended fixed caps and varactors appear
   in series across the tank, i.e. C_diff = (c_fixed + c_var) / 2. *)
let natural_frequency p ~vtune =
  (* tank common mode sits near 0.9 V in this topology *)
  let v_var = 0.9 -. vtune in
  let c_se = p.c_fixed +. C.Varactor_model.capacitance p.varactor v_var in
  1.0 /. (U.two_pi *. sqrt (p.inductance *. (c_se /. 2.0)))

type run = {
  frequency : float;
  amplitude : float;
  samples : float array;
  sample_rate : float;
}

let steps_per_cycle = 100

let simulate ?(cycles = 160) ?tune_tone p ~vtune =
  let f0 = natural_frequency p ~vtune in
  let dt = 1.0 /. (f0 *. float_of_int steps_per_cycle) in
  let tstop = float_of_int cycles /. f0 in
  let options =
    { Tran.default_options with
      Tran.ic =
        (* asymmetric kick so the oscillation starts deterministically *)
        Tran.Uic
          [ ("tp", 1.0); ("tn", 0.8); ("top", 1.4); ("vdd", 1.8);
            ("vt", vtune) ];
      record = Some [ "tp"; "tn" ] }
  in
  let d = Tran.simulate ~options ~tstop ~dt (netlist ?tune_tone p ~vtune) in
  let tp = Tran.node d "tp" and tn = Tran.node d "tn" in
  let n = Array.length tp in
  let diff = Array.init n (fun i -> tp.(i) -. tn.(i)) in
  let settled = Array.sub diff (n / 2) (n - (n / 2)) in
  let fs = 1.0 /. dt in
  {
    frequency = N.Zero_crossing.estimate_frequency ~fs settled;
    amplitude = N.Stats.max_abs settled;
    samples = settled;
    sample_rate = fs;
  }

let kvco_transient ?cycles p ~vtune ~dv =
  let up = simulate ?cycles p ~vtune:(vtune +. dv) in
  let down = simulate ?cycles p ~vtune:(vtune -. dv) in
  (up.frequency -. down.frequency) /. (2.0 *. dv)
