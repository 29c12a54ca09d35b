(** Dense real matrices (row-major). *)

type t

val make : int -> int -> t
(** [make rows cols] is the zero matrix of the given shape. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)

val rows : t -> int
val cols : t -> int

val raw_data : t -> float array
(** [raw_data m] is the live row-major backing store: entry [(i, j)]
    lives at index [i * cols m + j].  Mutations are visible to [m].
    Meant for solver kernels that refill a matrix in place. *)

val of_flat : rows:int -> cols:int -> float array -> t
(** [of_flat ~rows ~cols data] wraps a row-major array as a matrix
    without copying; [data] stays shared.
    Raises [Invalid_argument] when the length does not match. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] accumulates [v] into entry [(i, j)] — the MNA
    "stamp" operation. *)
