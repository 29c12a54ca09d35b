(** Leeson phase-noise estimate — used to check the VCO design card
    (-100 dBc/Hz at 100 kHz offset for the paper's 3 GHz, 5 mA VCO). *)

type params = {
  carrier_freq : float;  (** Hz *)
  loaded_q : float;
  signal_power : float;  (** W dissipated in the tank *)
  noise_factor : float;  (** Leeson F (excess noise), typically 2-10 *)
  flicker_corner : float;  (** 1/f^3 corner, Hz *)
  temperature : float;  (** K *)
}

val default_vco : params
(** The paper's VCO card: 3 GHz, loaded Q ~ 12, 5 mA core. *)

val dbc_per_hz : params -> float -> float
(** [dbc_per_hz p offset] is the Leeson single-sideband phase noise at
    [offset] Hz from the carrier.  Raises [Invalid_argument] when
    [offset <= 0]. *)

