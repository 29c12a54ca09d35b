module U = Sn_numerics.Units
module Goertzel = Sn_numerics.Goertzel

type tone = { f_noise : float; beta : Complex.t; m_am : Complex.t }

let reseed_interval = 512

(* The tone terms come from one phasor e^{j w_m t} per tone, advanced by
   rotation and re-seeded exactly with cos/sin every [reseed_interval]
   samples; tone parameters and phasors live in flat float arrays.  The
   carrier phase keeps its exact cos. *)
let synthesize ~carrier_freq ~amplitude ~tones ~fs ~n =
  if n <= 0 then invalid_arg "Behavioral.synthesize: n must be > 0";
  if fs <= 2.0 *. carrier_freq then
    invalid_arg "Behavioral.synthesize: fs must exceed 2 fc";
  let wc = U.two_pi *. carrier_freq in
  let tones = Array.of_list tones in
  let nt = Array.length tones in
  let f_noise = Array.map (fun t -> t.f_noise) tones in
  let m_re = Array.map (fun t -> t.m_am.Complex.re) tones in
  let m_im = Array.map (fun t -> t.m_am.Complex.im) tones in
  let b_re = Array.map (fun t -> t.beta.Complex.re) tones in
  let b_im = Array.map (fun t -> t.beta.Complex.im) tones in
  let step_c = Array.map (fun f -> cos (U.two_pi *. f /. fs)) f_noise in
  let step_s = Array.map (fun f -> sin (U.two_pi *. f /. fs)) f_noise in
  let pc = Array.make nt 1.0 and ps = Array.make nt 0.0 in
  let out = Array.create_float n in
  let k0 = ref 0 in
  while !k0 < n do
    let t = float_of_int !k0 /. fs in
    for j = 0 to nt - 1 do
      let wm = U.two_pi *. f_noise.(j) *. t in
      pc.(j) <- cos wm;
      ps.(j) <- sin wm
    done;
    for k = !k0 to min n (!k0 + reseed_interval) - 1 do
      let t = float_of_int k /. fs in
      let am = ref 0.0 and pm = ref 0.0 in
      for j = 0 to nt - 1 do
        let c = pc.(j) and s = ps.(j) in
        (* Re (z e^{j wm t}) = re z cos - im z sin *)
        am := !am +. ((m_re.(j) *. c) -. (m_im.(j) *. s));
        pm := !pm +. ((b_re.(j) *. c) -. (b_im.(j) *. s));
        pc.(j) <- (c *. step_c.(j)) -. (s *. step_s.(j));
        ps.(j) <- (s *. step_c.(j)) +. (c *. step_s.(j))
      done;
      out.(k) <- amplitude *. (1.0 +. !am) *. cos ((wc *. t) +. !pm)
    done;
    k0 := !k0 + reseed_interval
  done;
  out

let measured_sideband_dbm samples ~fs ~carrier_freq ~f_noise side =
  let f =
    match side with
    | `Lower -> carrier_freq -. f_noise
    | `Upper -> carrier_freq +. f_noise
  in
  let a = Goertzel.amplitude_windowed ~fs ~f samples in
  if a <= 0.0 then -300.0 else U.dbm_of_vpeak a

let carrier_dbm samples ~fs ~carrier_freq =
  let a = Goertzel.amplitude_windowed ~fs ~f:carrier_freq samples in
  if a <= 0.0 then -300.0 else U.dbm_of_vpeak a
