(** Digital switching-noise aggressor model — the paper's closing
    point: combining the impact methodology with a generation model
    (their ref. [10]) "would permit mixed-signal chip verification".

    A synchronous digital block injects supply/substrate current at
    its clock frequency and harmonics.  This module models the
    aggressor as the line spectrum of a periodic triangular current
    pulse train and converts it, through the same substrate transfer
    H(f) and oscillator model, into the predicted spur {e comb} at the
    VCO output. *)

type t = {
  clock_freq : float;  (** Hz *)
  peak_current : float;  (** A: peak of each switching current spike *)
  pulse_width : float;  (** s: triangular spike base width *)
  harmonics : int;  (** number of clock harmonics to evaluate *)
  injection_resistance : float;
      (** ohm: effective resistance from the digital ground network
          into the substrate injection point *)
}

val default : t
(** A 50 MHz, 20 mA-peak, 1 ns-wide aggressor, 8 harmonics. *)

type comb_line = {
  harmonic : int;
  f_noise : float;  (** k * f_clock *)
  injected_dbm : float;  (** tone power at the injection point, 50 ohm *)
  upper_dbm : float;  (** spur at f_c + k f_clock *)
  lower_dbm : float;
}

val spur_comb :
  t -> osc:Impact.oscillator -> h:(float -> string -> Complex.t) -> comb_line list
(** [spur_comb a ~osc ~h] is the predicted spur comb: one line per
    clock harmonic, evaluated with the oscillator's impact model and
    the substrate transfer [h] (same accessor as
    [Snoise.Flow.vco_transfers]). *)

val total_spur_power_dbm : comb_line list -> float
(** Power sum of all upper+lower comb lines (dBm) — a single figure of
    merit for the aggressor's impact. *)
