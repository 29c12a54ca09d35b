(** Two-port S-parameter extraction — how substrate isolation is
    usually quoted (S21 between a noisy contact and a victim contact).

    Ports are single-ended (node referenced to ground) with a common
    50 ohm reference impedance; the netlist must not already contain the
    terminations. *)

type sparams = {
  freq : float;
  s11 : Complex.t;
  s21 : Complex.t;
  s12 : Complex.t;
  s22 : Complex.t;
}

val analyze :
  Sn_circuit.Netlist.t -> port1:string -> port2:string ->
  freqs:float array -> sparams list
(** [analyze nl ~port1 ~port2 ~freqs] terminates both ports in the
    50 ohm reference impedance, drives each side in turn and solves the AC
    system per frequency.  Raises [Invalid_argument] when a port node
    is ground or missing. *)

val isolation_db : sparams -> float
(** [isolation_db s] is [-20 log10 |s21|] — the quoted substrate
    isolation. *)
