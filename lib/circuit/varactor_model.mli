(** Accumulation-mode NMOS varactor: a smooth, monotone C(V)
    characteristic between [cmin] and [cmax], the tuning element of the
    paper's LC tank.  The charge is available in closed form so the
    transient engine can use charge-conserving integration. *)

type t = {
  name : string;
  cmin : float;  (** F *)
  cmax : float;  (** F *)
  v0 : float;  (** transition center, V *)
  vslope : float;  (** transition width, V *)
}

val default : t
(** A 3 GHz-tank sized varactor: 250 fF to 750 fF swinging around
    0.45 V with a 0.35 V transition. *)

val capacitance : t -> float -> float
(** [capacitance m v] is [C(v)] (F) where [v] is the gate-to-bulk
    voltage.  Monotone increasing in [v]. *)

val charge : t -> float -> float
(** [charge m v] is the exact antiderivative of {!capacitance} with
    [charge m 0 = 0]. *)
