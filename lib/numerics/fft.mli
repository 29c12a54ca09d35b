(** Radix-2 FFT and spectral helpers used to "measure" spur levels on
    simulated waveforms, playing the role of the paper's spectrum
    analyzer. *)

val fft : Complex.t array -> Complex.t array
(** [fft x] is the forward DFT of [x], through the same split re/im
    kernel as {!amplitude_spectrum}: radix-2, with its twiddle factors
    computed exactly by cos/sin rather than accumulated.
    Raises [Invalid_argument] when the length is not a power of two. *)

val ifft : Complex.t array -> Complex.t array
(** [ifft x] inverts {!fft} (including the 1/N normalization). *)

type spectrum = {
  frequencies : float array; (** bin centers, Hz, DC .. fs/2 *)
  amplitudes : float array;  (** peak-equivalent sinusoid amplitude per bin *)
}

val amplitude_spectrum : ?window:[ `Rect | `Hann ] -> fs:float -> float array -> spectrum
(** [amplitude_spectrum ?window ~fs samples] is the single-sided
    amplitude spectrum of [samples] taken at sample rate [fs].  The
    input is zero-padded to a power of two; window defaults to [`Hann]
    and its coherent gain is compensated so an input
    [a *. cos (2 pi f t)] with [f] on a bin center reads amplitude [a].
    Raises [Invalid_argument] on an empty input, a non-positive [fs],
    or a 2-sample input under [`Hann], whose two weights are both 0. *)
