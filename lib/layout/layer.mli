(** Mask layers of the 1P6M process, plus the marker layers the
    extraction flow uses to tag substrate ports. *)

type t =
  | Substrate_contact
      (** p+ tap connecting a metal net resistively to the bulk *)
  | Nwell  (** n-well: couples capacitively to the bulk *)
  | Diffusion
  | Poly
  | Metal of int  (** metal 1..6 *)
  | Via of int
      (** [Via k] connects [Metal k] to [Metal (k+1)]; [Via 0] is the
          contact level connecting diffusion/poly to [Metal 1] *)
  | Pad  (** bond/probe pad opening *)
  | Backgate_probe of string
      (** virtual sensing region: observe the bulk potential under a
          device; the string names the device *)

val equal : t -> t -> bool

val is_metal : t -> bool
val metal_index : t -> int option

val name : t -> string
(** Stable textual name used by the layout file format. *)

val of_name : string -> t option
(** Inverse of {!name}. *)

val pp : Format.formatter -> t -> unit
