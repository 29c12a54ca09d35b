module C = Sn_circuit
module N = Sn_numerics

let boltzmann = 1.380649e-23
let mos_gamma = 2.0 /. 3.0

type contribution = { element : string; psd : float }

type point = {
  freq : float;
  total_psd : float;
  contributions : contribution list;
}

(* Noise current sources: (element name, node+, node-, PSD in A^2/Hz).
   The MOS channel noise acts between drain and source with
   4 k T gamma gm of the biased device. *)
let noise_sources nl dc ~temperature =
  let four_kt = 4.0 *. boltzmann *. temperature in
  List.filter_map
    (fun e ->
      match e with
      | C.Element.Resistor { name; n1; n2; ohms } ->
        Some (name, n1, n2, four_kt /. ohms)
      | C.Element.Mosfet { name; drain; source; mult; _ } ->
        let op = Dc.mos_operating_point dc name in
        let gm_total = float_of_int mult *. op.C.Mos_model.gm in
        if gm_total > 0.0 then
          Some (name, drain, source, four_kt *. mos_gamma *. gm_total)
        else None
      | C.Element.Capacitor _ | C.Element.Inductor _ | C.Element.Vsource _
      | C.Element.Isource _ | C.Element.Vccs _ | C.Element.Vcvs _
      | C.Element.Varactor _ ->
        None)
    (C.Netlist.elements nl)

let analyze_plan ?(pool = Pool.default ()) ?(temperature = 300.0) ~dc acp
    ~output ~freqs =
  let mna = Stamp_plan.mna (Ac_plan.plan acp) in
  let nl = Mna.netlist mna in
  let out_slot = Mna.node_slot mna output in
  if out_slot < 0 then invalid_arg "Noise.analyze: output cannot be ground";
  Array.iter
    (fun f -> if f < 0.0 then invalid_arg "Noise.analyze: negative frequency")
    freqs;
  let sources =
    (* resolve injection slots once; the frequency loop below only does
       numeric work *)
    List.map
      (fun (element, np, nn, psd_i) ->
        (element, Mna.node_slot mna np, Mna.node_slot mna nn, psd_i))
      (noise_sources nl dc ~temperature)
  in
  (* the adjoint stimulus: a unit excitation of the output row, shared
     by every frequency point *)
  let e_out =
    Array.init (Mna.dim mna) (fun i ->
        if i = out_slot then Complex.one else Complex.zero)
  in
  (* pin the pivot order before the pool fans out (byte-identical at
     any jobs width) *)
  if Array.length freqs > 0 then
    Ac_plan.ensure_master ~analysis:"noise" acp ~freq:freqs.(0);
  Pool.map_array pool
    (fun freq ->
      (* adjoint: factor the forward AC system once, then solve
         A^T y = e_out on the same factorization (transpose solve); the
         transfer from a unit current injected into node k to the
         output voltage is y_k *)
      let ws = Ac_plan.domain_workspace acp in
      Ac_plan.prepare_at ~analysis:"noise" acp ws ~freq;
      let y = Ac_plan.solve_transpose ws e_out in
      let gain n = if n < 0 then Complex.zero else y.(n) in
      let contributions =
        List.map
          (fun (element, sp, sn, psd_i) ->
            let h = Complex.sub (gain sp) (gain sn) in
            (* Complex.norm2 is |h|^2 *)
            { element; psd = Complex.norm2 h *. psd_i })
          sources
        |> List.sort (fun a b -> compare b.psd a.psd)
      in
      let total_psd =
        List.fold_left (fun acc c -> acc +. c.psd) 0.0 contributions
      in
      { freq; total_psd; contributions })
    freqs
  |> Array.to_list

let analyze ?pool ?dc ?temperature nl ~output ~freqs =
  let mna = Mna.build nl in
  let dc = match dc with Some d -> d | None -> Dc.solve_mna mna in
  let acp = Ac_plan.of_dc (Stamp_plan.build mna) dc in
  analyze_plan ?pool ?temperature ~dc acp ~output ~freqs

let total_rms points =
  match points with
  | [] | [ _ ] -> invalid_arg "Noise.total_rms: need at least 2 points"
  | _ ->
    let rec integrate acc = function
      | a :: (b :: _ as rest) ->
        integrate
          (acc
          +. (0.5 *. (a.total_psd +. b.total_psd) *. (b.freq -. a.freq)))
          rest
      | [ _ ] | [] -> acc
    in
    sqrt (integrate 0.0 points)

let spot_nv p = 1.0e9 *. sqrt p.total_psd
