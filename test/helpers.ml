(* Helpers shared by the test modules: Alcotest float checks, the QCheck
   adapter, element constructors, fault arming and the plain-Newton
   singular-pivot probe.  Opened by the modules that use them, so it
   binds no module names. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))
let qcheck t = QCheck_alcotest.to_alcotest t

let r name n1 n2 ohms = Sn_circuit.Element.Resistor { name; n1; n2; ohms }

let c name n1 n2 farads =
  Sn_circuit.Element.Capacitor { name; n1; n2; farads }

let l name n1 n2 henries =
  Sn_circuit.Element.Inductor { name; n1; n2; henries }

let v name np nn value =
  Sn_circuit.Element.Vsource
    { name; np; nn; wave = Sn_circuit.Waveform.dc value; ac_mag = 0.0 }

let i name np nn value =
  Sn_circuit.Element.Isource
    { name; np; nn; wave = Sn_circuit.Waveform.dc value; ac_mag = 0.0 }

let with_fault site spec f =
  Sn_engine.Fault.arm site spec;
  Fun.protect ~finally:Sn_engine.Fault.disarm f

(* plain Newton only: no rescue rung may paper over a singularity the
   static analyses are supposed to predict.  [Some unknown] on a
   singular pivot, [None] on a solution or any other failure. *)
let singular_pivot_of nl =
  let open Sn_engine in
  let options =
    { Dc.default_options with Dc.ladder = [ Diag.Plain_newton ] }
  in
  match Dc.solve ~options nl with
  | (_ : Dc.solution) -> None
  | exception Diag.Error (Diag.Singular_pivot { unknown; _ }) -> Some unknown
  | exception Diag.Error _ -> None
