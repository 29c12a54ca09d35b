(** The extracted substrate macromodel: a dense port conductance matrix
    (the Schur complement of the eliminated grid) plus the junction
    capacitances of well ports. *)

type t = {
  ports : Port.t array;
  conductance : Sn_numerics.Mat.t;
      (** symmetric [np x np] Laplacian between ports, Siemens *)
  well_capacitance : (string * float) list;
      (** junction capacitance (F) per {!Port.Well} port *)
}

val make :
  ports:Port.t array -> conductance:Sn_numerics.Mat.t ->
  well_capacitance:(string * float) list -> t
(** Raises [Invalid_argument] on a dimension mismatch. *)

val port_count : t -> int

val port_names : t -> string list

val to_resistors : t -> (string * string * float) list
(** All pairwise branch resistors [(a, b, ohms)] with [a < b],
    uncoupled pairs omitted. *)

val solve :
  t -> driven:(string * float) list -> grounded:string list ->
  (string * float) list
(** [solve m ~driven ~grounded] imposes the given port voltages
    ([driven] at their value, [grounded] at 0), leaves every other
    port floating (zero injected current) and returns all port
    voltages.  Raises [Not_found] on unknown ports, [Invalid_argument]
    when a port is constrained twice or no constraint is given. *)

val divider : t -> inject:string -> sense:string -> grounded:string list -> float
(** [divider m ~inject ~sense ~grounded] is the DC voltage division
    [v_sense / v_inject] with [inject] driven at 1 V — the quantity the
    paper reports as 1/652 for the SUB-to-back-gate transfer. *)

val pp : Format.formatter -> t -> unit
