(** Zero-crossing frequency estimation.

    Counting interpolated zero crossings resolves an oscillator's
    frequency far beyond the DFT bin width of the same record — the
    tool used to verify the transistor-level oscillator against the
    tank model. *)

val estimate_frequency : fs:float -> float array -> float
(** [estimate_frequency ~fs samples] is the mean frequency over the
    record, from the first to the last rising crossing.
    Raises [Invalid_argument] when [fs <= 0] or fewer than two rising
    crossings exist. *)

val period_jitter : fs:float -> float array -> float
(** [period_jitter ~fs samples] is the standard deviation of the
    cycle-to-cycle periods (seconds) — crude but useful to confirm a
    clean oscillation.  Raises like {!estimate_frequency} (needs at
    least three crossings). *)
