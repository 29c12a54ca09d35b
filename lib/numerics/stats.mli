(** Small statistics toolbox: error metrics for paper-vs-simulation
    comparisons and the regression used to check spur-slope laws. *)

val mean : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val std : float array -> float
(** Population standard deviation.  Raises [Invalid_argument] on an
    empty array. *)

val max_abs : float array -> float
(** [max_abs a] is the largest [|a.(i)|] (0 for the empty array). *)

val slope_db_per_decade : float array -> float array -> float
(** [slope_db_per_decade freqs dbs] fits [dbs] against [log10 freqs] by
    least squares and returns the slope in dB/decade — the quantity
    that distinguishes resistive-FM (−20 dB/dec), AM or capacitive-FM
    (0 dB/dec) and capacitive-AM (+20 dB/dec) coupling in the paper's
    section 5.  Raises [Invalid_argument] on mismatched lengths, fewer
    than 2 points or a single distinct frequency. *)
