(** Single-bin DFT (Goertzel algorithm).

    Measuring one spur at a known frequency [f_c +- f_noise] does not
    need a full FFT; Goertzel evaluates that single bin in O(N), at an
    arbitrary (non-bin-center) frequency.

    Both functions run one pass with no allocation: the bin phasor
    [e^{j 2 pi f i / fs}] (and, windowed, the Hann phasor
    [e^{j 2 pi i / (N - 1)}]) advances by one complex rotation per
    sample and is re-seeded exactly with [cos]/[sin] every 512
    samples.  A phasor is therefore never more than 512 rotations'
    rounding (a few 1e-13 relative) from exact; over random inputs of
    up to 70k samples the result stays within 1e-12 x max |sample| of
    the per-sample [cos]/[sin] definition. *)

val amplitude : fs:float -> f:float -> float array -> float
(** [amplitude ~fs ~f samples] is the magnitude of the DFT coefficient
    of [samples] at frequency [f] (Hz), with the [2/N] normalization
    that makes a pure input [a *. cos (2 pi f t + phi)] read [a].
    Raises [Invalid_argument] on an empty input, [fs <= 0], or [f]
    outside [0, fs/2]. *)

val amplitude_windowed : fs:float -> f:float -> float array -> float
(** Like {!amplitude} but applies a Hann window (compensated for
    coherent gain) first — reduces leakage from nearby strong tones at
    the cost of a wider main lobe.  Raises [Invalid_argument] on a
    2-sample input, whose two Hann weights are both 0. *)
