type params = {
  carrier_freq : float;
  loaded_q : float;
  signal_power : float;
  noise_factor : float;
  flicker_corner : float;
  temperature : float;
}

let default_vco =
  {
    carrier_freq = 3.0e9;
    loaded_q = 12.0;
    (* 5 mA core from 1.8 V, ~0.6 V amplitude in a ~150 ohm tank *)
    signal_power = 1.2e-3;
    noise_factor = 4.0;
    flicker_corner = 100.0e3;
    temperature = 300.0;
  }

let boltzmann = 1.380649e-23

(* Leeson:
   L(dm) = 10 log10 (2 F k T / Ps * (1 + (f0 / (2 Q dm))^2)
                      * (1 + fc / dm)) *)
let dbc_per_hz p offset =
  if offset <= 0.0 then invalid_arg "Phase_noise.dbc_per_hz: offset must be > 0";
  let thermal = 2.0 *. p.noise_factor *. boltzmann *. p.temperature /. p.signal_power in
  let resonator = p.carrier_freq /. (2.0 *. p.loaded_q *. offset) in
  let shape = 1.0 +. (resonator *. resonator) in
  let flicker = 1.0 +. (p.flicker_corner /. offset) in
  10.0 *. log10 (thermal *. shape *. flicker)
