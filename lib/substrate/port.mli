(** Substrate ports: the named surface regions between which the
    extractor computes the substrate macromodel.

    A port is where the substrate meets the circuit: a p+ contact ring
    (resistive), an n-well footprint (capacitive through the junction),
    or a device back-gate sensing area (resistive, the bulk node under
    a MOS channel).

    A port's region is a {e list} of rectangles: a guard ring is a
    hollow frame of contact strips that must not be collapsed to its
    bounding box. *)

type kind =
  | Resistive  (** p+ substrate tap: ohmic connection *)
  | Well  (** n-well: connects through the well-bulk junction C *)
  | Probe  (** back-gate observation region *)

type t = {
  name : string;
  kind : kind;
  region : Sn_geometry.Rect.t list;  (** layout coordinates, micrometers *)
}

val v : name:string -> kind:kind -> Sn_geometry.Rect.t list -> t
(** Raises [Invalid_argument] on an empty region. *)

val of_layout : Sn_layout.Layout.t -> t list
(** [of_layout l] derives ports from the flattened layout:
    - all [Substrate_contact] shapes of one net form one {!Resistive}
      port named after the net;
    - all [Nwell] shapes of one net form one {!Well} port named
      ["nwell:<net>"];
    - all [Backgate_probe d] shapes form one {!Probe} port per device
      [d], named ["backgate:<d>"].
    Ports are returned sorted by name. *)

val area : t -> float
(** Total region area (um^2). *)

val kind_name : kind -> string
val pp : Format.formatter -> t -> unit
