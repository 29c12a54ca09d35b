(** Time-domain stimulus waveforms of independent sources (the usual
    SPICE set). *)

type t =
  | Dc of float
  | Sin of { offset : float; amplitude : float; freq : float; phase : float }
      (** [phase] in radians; value is
          [offset + amplitude * sin (2 pi freq t + phase)] *)
  | Pulse of {
      v1 : float;
      v2 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Pwl of (float * float) list
      (** piecewise-linear [(time, value)] points, strictly increasing
          times; constant extrapolation outside *)

val dc : float -> t

val sin_wave : ?offset:float -> ?phase:float -> amplitude:float -> freq:float -> unit -> t
(** Raises [Invalid_argument] when [freq <= 0]. *)

val pulse :
  ?delay:float -> ?rise:float -> ?fall:float -> v1:float -> v2:float ->
  width:float -> period:float -> unit -> t

val pwl : (float * float) list -> t
(** Raises [Invalid_argument] when times are not strictly increasing or
    the list is empty. *)

val value : t -> float -> float
(** [value w t] evaluates the waveform at time [t >= 0]. *)

val dc_value : t -> float
(** Value used by DC analysis ([t = 0] for time-varying shapes, except
    [Sin] which uses its offset). *)
