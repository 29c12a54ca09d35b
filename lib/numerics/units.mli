(** Unit conversions used across the flow.

    All power-level conversions that involve dBm assume the 50 ohm
    reference impedance of the paper's measurement chain (RF probes,
    HP 8565E spectrum analyzer). *)

val pi : float
(** [pi] is the circle constant. *)

val two_pi : float
(** [two_pi] is [2 *. pi]. *)

val db_of_ratio : float -> float
(** [db_of_ratio r] is the amplitude ratio [r] expressed in dB
    ([20 log10 r]).  Raises [Invalid_argument] when [r <= 0]. *)

val ratio_of_db : float -> float
(** [ratio_of_db d] inverts {!db_of_ratio}. *)

val db_of_power_ratio : float -> float
(** [db_of_power_ratio r] is the power ratio [r] in dB ([10 log10 r]).
    Raises [Invalid_argument] when [r <= 0]. *)

val dbm_of_watts : float -> float
(** [dbm_of_watts p] is the power [p] (W) in dBm.
    Raises [Invalid_argument] when [p <= 0]. *)

val watts_of_dbm : float -> float
(** [watts_of_dbm d] inverts {!dbm_of_watts}. *)

val dbm_of_vpeak : ?r:float -> float -> float
(** [dbm_of_vpeak ?r v] is the power of a sinusoid of peak amplitude [v]
    volts across resistance [r] (default 50 ohm, the system impedance),
    in dBm. *)

val vpeak_of_dbm : ?r:float -> float -> float
(** [vpeak_of_dbm ?r d] inverts {!dbm_of_vpeak}. *)

val eng : ?unit:string -> float -> string
(** [eng ?unit v] renders [v] with an engineering prefix (f, p, n, u,
    m, k, M, G, T): [eng ~unit:"Hz" 3.0e9] is ["3.00 GHz"]. *)
