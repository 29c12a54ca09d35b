(** A frequency-scaled transistor-level replica of the VCO for direct
    transient simulation.

    Simulating the real 3 GHz oscillator over microseconds of noise
    modulation is out of reach for a dense fixed-step engine, so this
    module provides the same topology (complementary cross-coupled
    pair, differential LC tank, varactor pair) scaled to a few MHz,
    where hundreds of carrier cycles are cheap.  It is used to
    validate the engine (oscillation builds up, the frequency matches
    the tank) and to cross-check the narrowband FM spur model (a tone
    on the tuning line produces the sidebands equation (2) predicts)
    against a full nonlinear transient — the strongest "Spectre
    substitute" evidence this repo offers. *)

type params = {
  inductance : float;  (** differential tank L, H *)
  c_fixed : float;  (** single-ended fixed tank C per side, F *)
  varactor : Sn_circuit.Varactor_model.t;
  tank_q_resistor : float;  (** ohm, differential loss resistor *)
  tail_current : float;  (** A *)
  nmos_w : float;
  pmos_w : float;
  channel_l : float;
}

val default : params
(** ~5 MHz oscillator with a strong varactor (K_vco ~ a few hundred
    kHz/V). *)

val natural_frequency : params -> vtune:float -> float
(** Small-signal tank estimate [1 / (2 pi sqrt (L C_diff))] including
    the varactor at its bias. *)

type run = {
  frequency : float;  (** zero-crossing estimate from the transient *)
  amplitude : float;  (** differential swing, V peak *)
  samples : float array;  (** differential waveform after settling *)
  sample_rate : float;
}

val simulate :
  ?cycles:int -> ?tune_tone:float * float -> params -> vtune:float -> run
(** [simulate ?cycles ?tune_tone p ~vtune] runs the
    transient (default 160 cycles at 100 steps/cycle), discards the
    first half (startup) and measures the rest; [tune_tone = (amplitude,
    freq)] puts a sinusoid on the tuning line (FM injection). *)

val kvco_transient : ?cycles:int -> params -> vtune:float -> dv:float -> float
(** [kvco_transient p ~vtune ~dv] estimates the tuning gain from two
    transient runs at [vtune +- dv] (Hz/V). *)
