module U = Sn_numerics.Units

type entry = {
  label : string;
  node : string;
  k_hz_per_v : float;
  g_am_per_v : float;
}

type oscillator = {
  carrier_freq : float;
  amplitude : float;
  entries : entry list;
}

type contribution = {
  entry_label : string;
  h_mag : float;
  beta : Complex.t;
  m_am : Complex.t;
  spur_dbm : float;
}

type spur = {
  f_noise : float;
  lower_dbm : float;
  upper_dbm : float;
  contributions : contribution list;
}

let cscale k (c : Complex.t) = { Complex.re = k *. c.Complex.re; im = k *. c.Complex.im }

let j_times (c : Complex.t) = { Complex.re = -.c.Complex.im; im = c.Complex.re }

(* Upper sideband amplitude (Ac/2) |m + j beta|; lower (Ac/2) |m - j beta|. *)
let sideband_amplitudes amplitude beta m =
  let jb = j_times beta in
  let upper = 0.5 *. amplitude *. Complex.norm (Complex.add m jb) in
  let lower = 0.5 *. amplitude *. Complex.norm (Complex.sub m jb) in
  (lower, upper)

let dbm_of_amplitude a =
  if a <= 0.0 then -300.0 else U.dbm_of_vpeak a

let spur osc ~h ~a_noise ~f_noise =
  if f_noise <= 0.0 then invalid_arg "Impact.spur: f_noise must be > 0";
  let eval (e : entry) =
    let hi = h e.node in
    let beta = cscale (e.k_hz_per_v *. a_noise /. f_noise) hi in
    let m_am = cscale (e.g_am_per_v *. a_noise) hi in
    let _, upper = sideband_amplitudes osc.amplitude beta m_am in
    {
      entry_label = e.label;
      h_mag = Complex.norm hi;
      beta;
      m_am;
      spur_dbm = dbm_of_amplitude upper;
    }
  in
  let contributions = List.map eval osc.entries in
  let beta_total =
    List.fold_left (fun acc c -> Complex.add acc c.beta) Complex.zero
      contributions
  in
  let m_total =
    List.fold_left (fun acc c -> Complex.add acc c.m_am) Complex.zero
      contributions
  in
  let lower, upper = sideband_amplitudes osc.amplitude beta_total m_total in
  {
    f_noise;
    lower_dbm = dbm_of_amplitude lower;
    upper_dbm = dbm_of_amplitude upper;
    contributions;
  }

let total_modulation osc ~h ~a_noise ~f_noise =
  let s = spur osc ~h ~a_noise ~f_noise in
  let beta =
    List.fold_left (fun acc c -> Complex.add acc c.beta) Complex.zero
      s.contributions
  in
  let m =
    List.fold_left (fun acc c -> Complex.add acc c.m_am) Complex.zero
      s.contributions
  in
  (beta, m)
