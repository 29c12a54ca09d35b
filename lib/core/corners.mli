(** Process-corner analysis: rerun the flow across technology
    variations (bulk resistivity, metal sheet resistance, contact
    resistance, junction capacitance) and report the spread of the
    coupling figures — the "sign-off" use the paper's conclusion
    anticipates.

    The corner values are multiplicative factors on the nominal
    {!Sn_tech.Tech.imec018} card. *)

type corner = {
  name : string;
  bulk_resistivity : float;  (** x nominal *)
  sheet_resistance : float;  (** x nominal, all metals *)
  contact_resistance : float;  (** x nominal *)
  well_capacitance : float;  (** x nominal *)
}

val corners_3sigma : corner list
(** nominal, slow (every parasitic worse) and fast (every parasitic
    better), plus the two mixed corners that matter for this coupling
    problem (resistive-worst and capacitive-worst). *)

val apply : corner -> Sn_tech.Tech.t -> Sn_tech.Tech.t
(** Scale a technology card by the corner factors. *)

type vco_corner_result = {
  corner : corner;
  spur_at_10mhz_dbm : float;
  carrier_ghz : float;
}

val vco_spread :
  ?options:Flow.options -> ?corners:corner list -> unit ->
  vco_corner_result list
(** Run the VCO spur of the paper's tone ({!Flow.paper_noise_dbm}) at
    10 MHz across the corners. *)

val spread_db : vco_corner_result list -> float
(** Max - min spur level over the corners. *)
