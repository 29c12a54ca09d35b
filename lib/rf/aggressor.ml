module U = Sn_numerics.Units

type t = {
  clock_freq : float;
  peak_current : float;
  pulse_width : float;
  harmonics : int;
  injection_resistance : float;
}

let default =
  {
    clock_freq = 50.0e6;
    peak_current = 20.0e-3;
    pulse_width = 1.0e-9;
    harmonics = 8;
    injection_resistance = 5.0;
  }

let sinc x = if Float.abs x < 1e-12 then 1.0 else sin x /. x

(* Fourier line amplitudes (A, peak) of a periodic triangular pulse
   train, k >= 1: a_k = 2 * area / T * sinc^2 (pi k f w / 2). *)
let harmonic_amplitude a k =
  let area = a.peak_current *. a.pulse_width /. 2.0 in
  let arg = U.pi *. float_of_int k *. a.clock_freq *. a.pulse_width /. 2.0 in
  let s = sinc arg in
  2.0 *. area *. a.clock_freq *. s *. s

let injected_voltage a k = harmonic_amplitude a k *. a.injection_resistance

type comb_line = {
  harmonic : int;
  f_noise : float;
  injected_dbm : float;
  upper_dbm : float;
  lower_dbm : float;
}

let spur_comb a ~osc ~h =
  List.init a.harmonics (fun i ->
      let k = i + 1 in
      let f_noise = float_of_int k *. a.clock_freq in
      let a_noise = injected_voltage a k in
      let spur = Impact.spur osc ~h:(h f_noise) ~a_noise ~f_noise in
      {
        harmonic = k;
        f_noise;
        injected_dbm =
          (if a_noise > 0.0 then U.dbm_of_vpeak a_noise else -300.0);
        upper_dbm = spur.Impact.upper_dbm;
        lower_dbm = spur.Impact.lower_dbm;
      })

let total_spur_power_dbm lines =
  let watts =
    List.fold_left
      (fun acc l ->
        acc +. U.watts_of_dbm l.upper_dbm +. U.watts_of_dbm l.lower_dbm)
      0.0 lines
  in
  if watts > 0.0 then U.dbm_of_watts watts else -300.0
