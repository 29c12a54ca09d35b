module U = Sn_numerics.Units
module V = Sn_circuit.Varactor_model

type junction = { c0 : float; phi_b : float; grading : float }

(* Reverse bias increases depletion width and shrinks C; clamp the
   forward-bias singularity the usual SPICE way. *)
let junction_capacitance j v_reverse =
  let v = Float.max v_reverse (-.(j.phi_b /. 2.0)) in
  j.c0 /. ((1.0 +. (v /. j.phi_b)) ** j.grading)

type bias = {
  v_tune : float;
  v_gnd : float;
  v_tank_cm : float;
  v_backgate : float;
  v_nwell : float;
}

let quiet_bias ~v_tune =
  { v_tune; v_gnd = 0.0; v_tank_cm = 0.9; v_backgate = 0.0; v_nwell = 1.8 }

type t = {
  inductance : float;
  c_fixed : float;
  varactor : V.t;
  varactor_mult : int;
  cj_nmos : junction;
  cj_pmos : junction;
}

let default_3ghz =
  {
    inductance = 2.0e-9;
    c_fixed = 550.0e-15;
    varactor = V.default;
    varactor_mult = 1;
    cj_nmos = { c0 = 120.0e-15; phi_b = 0.8; grading = 0.4 };
    cj_pmos = { c0 = 150.0e-15; phi_b = 0.8; grading = 0.4 };
  }

type entry =
  | Ground
  | Backgate
  | Pmos_well
  | Varactor_well
  | Inductor_node
  | Supply

let entry_name = function
  | Ground -> "ground interconnect"
  | Backgate -> "nmos back-gate"
  | Pmos_well -> "pmos n-well"
  | Varactor_well -> "varactor n-well"
  | Inductor_node -> "inductor"
  | Supply -> "supply interconnect"

let capacitance t bias =
  let v_tank = bias.v_gnd +. bias.v_tank_cm in
  (* varactor: gate on the tank, well driven by the (externally
     referenced) tuning voltage *)
  let c_var =
    V.capacitance t.varactor (v_tank -. bias.v_tune)
    *. float_of_int t.varactor_mult
  in
  let c_jn = junction_capacitance t.cj_nmos (v_tank -. bias.v_backgate) in
  let c_jp = junction_capacitance t.cj_pmos (bias.v_nwell -. v_tank) in
  t.c_fixed +. c_var +. c_jn +. c_jp

let frequency t bias =
  1.0 /. (U.two_pi *. sqrt (t.inductance *. capacitance t bias))

(* shift the bias the way a small voltage [dv] arriving at [entry]
   physically does (a ground bounce lifts local ground and the tank
   common mode riding on it, etc.) *)
let apply_entry bias entry dv =
  match entry with
  | Ground -> { bias with v_gnd = bias.v_gnd +. dv }
  | Backgate -> { bias with v_backgate = bias.v_backgate +. dv }
  | Pmos_well -> { bias with v_nwell = bias.v_nwell +. dv }
  | Varactor_well -> { bias with v_tune = bias.v_tune +. dv }
  | Inductor_node -> { bias with v_tank_cm = bias.v_tank_cm +. dv }
  | Supply -> { bias with v_nwell = bias.v_nwell +. dv }

let sensitivity t bias entry =
  let dv = 1.0e-4 in
  let fp = frequency t (apply_entry bias entry dv) in
  let fm = frequency t (apply_entry bias entry (-.dv)) in
  (fp -. fm) /. (2.0 *. dv)

let kvco t ~v_tune =
  let bias = quiet_bias ~v_tune in
  let dv = 1.0e-4 in
  let fp = frequency t { bias with v_tune = v_tune +. dv } in
  let fm = frequency t { bias with v_tune = v_tune -. dv } in
  (fp -. fm) /. (2.0 *. dv)
