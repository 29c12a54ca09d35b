(** Process technology description.

    Lengths in this module are SI (meters, ohms, farads); the layout
    layer works in micrometers and the extractors convert via
    {!micron}. *)

val micron : float
(** [micron] is 1e-6 m. *)

type metal = {
  index : int;  (** 1-based metal level *)
  sheet_resistance : float;  (** ohm / square *)
  thickness : float;  (** m *)
  height : float;  (** dielectric height above the substrate surface, m *)
  min_width : float;  (** m *)
}

type via = {
  level : int;  (** connects metal [level] to metal [level + 1]; 0 = contact *)
  resistance : float;  (** ohm per cut *)
}

type substrate_layer = {
  depth : float;  (** layer thickness, m *)
  resistivity : float;  (** ohm * m *)
}

type substrate_profile = {
  layers : substrate_layer list;  (** surface first *)
  contact_resistance : float;
      (** ohm * m^2: specific contact resistance of a p+ tap *)
  nwell_cap_area : float;  (** F / m^2: n-well to bulk junction *)
  nwell_cap_perimeter : float;  (** F / m: n-well sidewall *)
}

type t = {
  name : string;
  metals : metal list;
  vias : via list;
  substrate : substrate_profile;
  oxide_permittivity : float;  (** F / m, effective IMD permittivity *)
  supply_voltage : float;  (** V *)
}

exception Unknown_metal of { tech : string; index : int; available : int list }
(** A metal level the stack does not define; [available] lists the
    levels it does, in ascending order. *)

exception Unknown_via of { tech : string; level : int; available : int list }
(** A via level the stack does not define; [available] lists the
    levels it does, in ascending order. *)

val metal : t -> int -> metal
(** [metal t k] is metal level [k].  Raises {!Unknown_metal}. *)

val via : t -> int -> via
(** [via t k].  Raises {!Unknown_via}. *)

val wire_capacitance_per_area : t -> int -> float
(** [wire_capacitance_per_area t k] is the parallel-plate C density
    (F/m^2) of metal [k] to the substrate surface. *)

val wire_fringe_per_length : t -> int -> float
(** [wire_fringe_per_length t k] is the fringe C density (F/m) of a
    metal-[k] edge to substrate — a standard empirical closed form. *)

val validate : t -> (unit, string) result
(** Sanity checks: positive dimensions, contiguous metal indices,
    non-empty substrate profile. *)

val imec018 : t
(** The paper's high-ohmic (20 ohm cm) twin-well 1P6M 0.18 um CMOS
    technology, reconstructed from the values stated in the paper and
    typical 0.18 um back-end parameters. *)

val epi018 : t
(** The same back-end on an epitaxial wafer: a thin lightly doped epi
    layer over a heavily doped p+ bulk.  The p+ bulk behaves almost as
    a single node, which famously changes every substrate-coupling
    trade-off (distance and guard rings stop helping; a backside
    contact dominates) — the contrast the paper's "high-ohmic"
    qualifier refers to. *)
