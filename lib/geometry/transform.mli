(** Manhattan placement transforms (the dihedral group of the square
    plus translation) applied to cell instances. *)

type orientation =
  | R0
  | R90
  | R180
  | R270
  | MX     (** mirror about the x axis *)
  | MY     (** mirror about the y axis *)
  | MXR90  (** mirror about x, then rotate 90 *)
  | MYR90  (** mirror about y, then rotate 90 *)

type t = { orientation : orientation; offset : Point.t }

val identity : t
val make : orientation -> Point.t -> t

val apply_point : t -> Point.t -> Point.t
val apply_rect : t -> Rect.t -> Rect.t
val apply_path : t -> Path.t -> Path.t

val compose : t -> t -> t
(** [compose outer inner] applies [inner] first, then [outer]:
    [apply_point (compose o i) p = apply_point o (apply_point i p)]. *)

val orientation_name : orientation -> string
val orientation_of_name : string -> orientation option
