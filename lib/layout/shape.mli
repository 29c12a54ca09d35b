(** A drawn shape: geometry on a layer, attached to a net.

    Wire paths carry optional terminal labels so the interconnect
    extractor produces deterministic node names for the resistor
    chains it generates. *)

type geometry =
  | Rect of Sn_geometry.Rect.t
  | Path of {
      path : Sn_geometry.Path.t;
      from_terminal : string option;
      to_terminal : string option;
    }

type t = { layer : Layer.t; net : string; geometry : geometry }

val rect : layer:Layer.t -> net:string -> Sn_geometry.Rect.t -> t

val path :
  layer:Layer.t -> net:string -> ?from_terminal:string -> ?to_terminal:string ->
  Sn_geometry.Path.t -> t

val bbox : t -> Sn_geometry.Rect.t
(** Bounding box of the drawn geometry (paths include their width). *)

val transform : Sn_geometry.Transform.t -> t -> t

val scale_path_width : float -> t -> t
(** [scale_path_width k s] widens path geometry by [k]; rectangles are
    returned unchanged.  Used by the Fig. 10 re-extraction. *)
