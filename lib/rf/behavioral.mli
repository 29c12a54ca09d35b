(** Behavioral oscillator synthesis — paper equation (1) in the time
    domain.  Generates the modulated carrier so a DFT "measurement" of
    the spurs can cross-check the closed-form spur model (and render
    the Figure 7 spectrum). *)

type tone = {
  f_noise : float;
  beta : Complex.t;  (** FM modulation index *)
  m_am : Complex.t;  (** AM modulation index *)
}

val synthesize :
  carrier_freq:float -> amplitude:float -> tones:tone list -> fs:float ->
  n:int -> float array
(** [synthesize ~carrier_freq ~amplitude ~tones ~fs ~n] samples

    {v v(t) = Ac (1 + sum Re (m e^{j w_m t}))
              cos (w_c t + sum Re (beta e^{j w_m t})) v}

    at rate [fs].  Each tone's [e^{j w_m t}] is a phasor advanced by
    one rotation per sample and re-seeded exactly with [cos]/[sin]
    every 512 samples; the carrier phase [w_c t + ...] goes through
    [cos] at every sample.  With 1-3 tones the result stays within
    1e-12 x [Ac] of the per-sample closed form.  Raises
    [Invalid_argument] when [fs <= 2 * fc] or [n <= 0]. *)

val measured_sideband_dbm :
  float array -> fs:float -> carrier_freq:float -> f_noise:float ->
  [ `Lower | `Upper ] -> float
(** Goertzel measurement of one spur, in dBm (50 ohm), on a synthesized
    or simulated waveform. *)

val carrier_dbm : float array -> fs:float -> carrier_freq:float -> float
