(** Netlist elements.  Node names are free-form strings; ["0"] and
    ["gnd"] both denote ground. *)

type t =
  | Resistor of { name : string; n1 : string; n2 : string; ohms : float }
  | Capacitor of { name : string; n1 : string; n2 : string; farads : float }
  | Inductor of { name : string; n1 : string; n2 : string; henries : float }
  | Vsource of {
      name : string;
      np : string;
      nn : string;
      wave : Waveform.t;
      ac_mag : float;  (** stimulus amplitude for AC analysis *)
    }
  | Isource of {
      name : string;
      np : string;  (** current flows np -> nn through the source *)
      nn : string;
      wave : Waveform.t;
      ac_mag : float;
    }
  | Vccs of {
      name : string;
      np : string;
      nn : string;
      cp : string;  (** positive controlling node *)
      cn : string;
      gm : float;  (** S: i(np->nn) = gm * (v_cp - v_cn) *)
    }
  | Vcvs of {
      name : string;
      np : string;
      nn : string;
      cp : string;
      cn : string;
      gain : float;
    }
  | Mosfet of {
      name : string;
      drain : string;
      gate : string;
      source : string;
      bulk : string;
      model : Mos_model.t;
      w : float;  (** m *)
      l : float;  (** m *)
      mult : int;  (** parallel multiplicity *)
    }
  | Varactor of {
      name : string;
      n1 : string;  (** gate side *)
      n2 : string;  (** bulk side *)
      model : Varactor_model.t;
      mult : int;
    }

val name : t -> string
val nodes : t -> string list

val is_ground : string -> bool
(** ["0"] or ["gnd"] (case-insensitive). *)

val validate : t -> (unit, string) result
(** Finite nonzero R / C values (negative allowed — reduced-order
    macromodel branches carry arbitrary sign), positive inductance and
    device geometry, [mult >= 1]. *)
