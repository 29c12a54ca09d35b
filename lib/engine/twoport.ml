module C = Sn_circuit
module E = C.Element
module N = Sn_numerics

type sparams = {
  freq : float;
  s11 : Complex.t;
  s21 : Complex.t;
  s12 : Complex.t;
  s22 : Complex.t;
}

(* Voltage-wave convention with equal reference impedances: drive one
   side with an EMF of 2 V behind z0 (incident wave a = 1 at the port
   plane), terminate the other side in z0.  Then
   S_driven,driven = v_driven - 1 and S_other,driven = v_other. *)
let z0 = 50.0

let analyze nl ~port1 ~port2 ~freqs =
  if E.is_ground port1 || E.is_ground port2 then
    invalid_arg "Twoport.analyze: port cannot be ground";
  if not (C.Netlist.mem_node nl port1 && C.Netlist.mem_node nl port2) then
    invalid_arg "Twoport.analyze: unknown port node";
  let harness ~drive =
    let src name node mag =
      [ E.Vsource { name = name ^ "_src"; np = name ^ "_emf"; nn = "0";
                    wave = C.Waveform.dc 0.0; ac_mag = mag };
        E.Resistor { name = name ^ "_term"; n1 = name ^ "_emf"; n2 = node;
                     ohms = z0 } ]
    in
    C.Netlist.create
      (C.Netlist.elements nl
      @ src "p1" port1 (if drive = `One then 2.0 else 0.0)
      @ src "p2" port2 (if drive = `Two then 2.0 else 0.0))
  in
  let forward = harness ~drive:`One and reverse = harness ~drive:`Two in
  let dc_f = Dc.solve forward and dc_r = Dc.solve reverse in
  (* one compiled plan and one factorization pattern per direction, all
     frequencies through the sparse sweep engine *)
  let nodes = [ port1; port2 ] in
  let fwd = Ac.sweep ~dc:dc_f forward ~freqs ~nodes in
  let rev = Ac.sweep ~dc:dc_r reverse ~freqs ~nodes in
  Array.to_list
    (Array.map2
       (fun (pf : Ac.sweep_point) (pr : Ac.sweep_point) ->
         {
           freq = pf.Ac.freq;
           s11 = Complex.sub (List.assoc port1 pf.Ac.values) Complex.one;
           s21 = List.assoc port2 pf.Ac.values;
           s22 = Complex.sub (List.assoc port2 pr.Ac.values) Complex.one;
           s12 = List.assoc port1 pr.Ac.values;
         })
       fwd rev)

let isolation_db s = -.N.Units.db_of_ratio (Complex.norm s.s21)
