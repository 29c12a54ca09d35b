(** Parameter sweeps (frequency axes, bias axes) and interpolation. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] evenly spaced points from [a] to [b]
    inclusive.  Raises [Invalid_argument] when [n < 2] (unless [n = 1]
    and [a = b]). *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] is [n] logarithmically spaced points from [a] to
    [b] inclusive.  Raises [Invalid_argument] when [a <= 0], [b <= 0]
    or [n < 2]. *)

val decades : per_decade:int -> float -> float -> float array
(** [decades ~per_decade f0 f1] is a log sweep with [per_decade] points
    per decade, always including both endpoints. *)

val interp1 : float array -> float array -> float -> float
(** [interp1 xs ys x] linearly interpolates the sampled function
    [(xs, ys)] at [x]; [xs] must be strictly increasing.  Values outside
    the range are clamped to the end samples.  Raises
    [Invalid_argument] on length mismatch or fewer than 1 point. *)
