(** Narrowband FM/AM spur model — equations (1)-(3) of the paper.

    Each coupling entry [i] contributes a complex FM modulation index
    [beta_i = K_i H_i(f) A_noise / f_noise] and an AM index
    [m_i = G_AM_i H_i(f) A_noise]; superposition gives the sideband
    amplitudes at [f_c +- f_noise]:

    {v |V(fc +- fn)| = (Ac / 2) |m_total +- j beta_total| v} *)

type entry = {
  label : string;  (** display name, e.g. "ground interconnect" *)
  node : string;  (** merged-netlist node whose AC transfer is H_i(f) *)
  k_hz_per_v : float;  (** oscillator frequency sensitivity K_i *)
  g_am_per_v : float;  (** AM gain G_AM_i *)
}

type oscillator = {
  carrier_freq : float;  (** f_c, Hz *)
  amplitude : float;  (** A_c, V peak at the measured output *)
  entries : entry list;
}

type contribution = {
  entry_label : string;
  h_mag : float;  (** |H_i(f_noise)| *)
  beta : Complex.t;  (** FM index contribution *)
  m_am : Complex.t;  (** AM index contribution *)
  spur_dbm : float;
      (** spur power (dBm, 50 ohm) this entry alone would produce at
          [f_c + f_noise] *)
}

type spur = {
  f_noise : float;
  lower_dbm : float;  (** at f_c - f_noise *)
  upper_dbm : float;  (** at f_c + f_noise *)
  contributions : contribution list;
}

val spur :
  oscillator -> h:(string -> Complex.t) -> a_noise:float -> f_noise:float ->
  spur
(** [spur osc ~h ~a_noise ~f_noise] evaluates the model; [h node] is
    the substrate-and-interconnect transfer (unit injected amplitude)
    to [node] at [f_noise], [a_noise] the injected tone amplitude (V
    peak).  Raises [Invalid_argument] when [f_noise <= 0]. *)

val total_modulation :
  oscillator -> h:(string -> Complex.t) -> a_noise:float -> f_noise:float ->
  Complex.t * Complex.t
(** [(beta_total, m_total)] — exposed for the behavioral synthesizer. *)
