(** LC-tank model of the VCO: oscillation frequency as a function of
    the DC voltages on the sensitive nodes, and the frequency
    sensitivities K_i = d f_c / d v_i obtained by numeric
    differentiation.

    The voltage conventions follow the paper's impact mechanism: the
    tuning voltage is referenced to the {e off-chip} ground, while the
    tank common mode rides on the {e on-chip} local ground/supply.  A
    bounce of the local ground therefore modulates the varactor bias
    one-for-one — that is why the ground interconnect is the dominant
    FM entry. *)

type junction = {
  c0 : float;  (** zero-bias junction capacitance, F *)
  phi_b : float;  (** built-in potential, V *)
  grading : float;  (** grading coefficient m (0.3-0.5) *)
}
(** A junction of capacitance [c0 / (1 + v_reverse / phi_b) ** grading],
    clamped for forward bias below [-phi_b / 2]. *)

type bias = {
  v_tune : float;  (** tuning pad voltage, off-chip referenced, V *)
  v_gnd : float;  (** on-chip local ground, V (0 when quiet) *)
  v_tank_cm : float;  (** tank common mode above local ground, V *)
  v_backgate : float;  (** NMOS bulk potential, V *)
  v_nwell : float;  (** PMOS / varactor n-well potential, V *)
}

val quiet_bias : v_tune:float -> bias
(** Bias with all noise entries at rest and the default common mode
    (tank at mid-supply). *)

type t = {
  inductance : float;  (** total differential tank inductance, H *)
  c_fixed : float;  (** bias-independent tank capacitance, F *)
  varactor : Sn_circuit.Varactor_model.t;
  varactor_mult : int;
  cj_nmos : junction;  (** switching-pair NMOS drain junction at tank *)
  cj_pmos : junction;  (** switching-pair PMOS drain junction at tank *)
}

val default_3ghz : t
(** Tank sized so the paper's VCO card holds: ~3 GHz at mid tuning
    range with the default varactor. *)

type entry =
  | Ground  (** on-chip ground interconnect (resistive coupling) *)
  | Backgate  (** NMOS back-gates (resistive) *)
  | Pmos_well  (** PMOS n-well (capacitive through the well junction) *)
  | Varactor_well  (** accumulation varactor n-well (capacitive) *)
  | Inductor_node  (** direct capacitive injection onto the tank *)
  | Supply  (** on-chip power interconnect *)

val entry_name : entry -> string

val capacitance : t -> bias -> float
(** Total single-ended tank capacitance at the bias point, F. *)

val frequency : t -> bias -> float
(** [frequency tank bias] is [1 / (2 pi sqrt (L C))]. *)

val sensitivity : t -> bias -> entry -> float
(** [sensitivity tank bias entry] is K_i = d f_c / d v_i (Hz/V),
    central finite difference. *)

val kvco : t -> v_tune:float -> float
(** Conventional tuning gain d f_c / d v_tune (Hz/V, negative for this
    topology at rising tune voltage if C grows). *)
