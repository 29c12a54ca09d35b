module C = Sn_circuit
module N = Sn_numerics

type solution = {
  mna : Mna.t;
  freq : float;
  x : Complex.t array;
}

let cx re im = { Complex.re; im }
let czero = Complex.zero

(* Dense reference assembly of the complex admittance system at angular
   frequency w.  This is the slow-but-obvious formulation the sparse
   frequency-domain engine ({!Ac_plan}) is validated against: it
   re-stamps the full matrix and re-evaluates every device's
   small-signal parameters at each call.  The production solve path
   below goes through [Ac_plan] instead.  [dcx] is the raw DC unknown
   vector; MOSFET and varactor small-signal parameters are evaluated at
   those bias voltages. *)
let assemble_plan (plan : Stamp_plan.t) dcx ~omega =
  let dim = Stamp_plan.dim plan in
  let a = Array.make_matrix dim dim czero in
  let rhs = Array.make dim czero in
  let volt s = if s < 0 then 0.0 else dcx.(s) in
  let stamp i j (y : Complex.t) =
    if i >= 0 && j >= 0 then a.(i).(j) <- Complex.add a.(i).(j) y
  in
  let inject i (v : Complex.t) =
    if i >= 0 then rhs.(i) <- Complex.add rhs.(i) v
  in
  let stamp_admittance i j y =
    stamp i i y;
    stamp j j y;
    stamp i j (Complex.neg y);
    stamp j i (Complex.neg y)
  in
  let one = cx 1.0 0.0 in
  Array.iter
    (fun (e : Stamp_plan.elt) ->
      match e with
      | Stamp_plan.Resistor { i; j; g } -> stamp_admittance i j (cx g 0.0)
      | Stamp_plan.Capacitor { i; j; c; _ } ->
        stamp_admittance i j (cx 0.0 (omega *. c))
      | Stamp_plan.Varactor { i; j; vmodel; fm; _ } ->
        let c =
          C.Varactor_model.capacitance vmodel (volt i -. volt j) *. fm
        in
        stamp_admittance i j (cx 0.0 (omega *. c))
      | Stamp_plan.Inductor { b; i; j; henries; _ } ->
        stamp b i one;
        stamp b j (Complex.neg one);
        stamp i b one;
        stamp j b (Complex.neg one);
        stamp b b (cx 0.0 (-.(omega *. henries)))
      | Stamp_plan.Vsource { b; i; j; ac_mag; _ } ->
        stamp b i one;
        stamp b j (Complex.neg one);
        stamp i b one;
        stamp j b (Complex.neg one);
        rhs.(b) <- Complex.add rhs.(b) (cx ac_mag 0.0)
      | Stamp_plan.Isource { i; j; ac_mag; _ } ->
        inject i (cx (-.ac_mag) 0.0);
        inject j (cx ac_mag 0.0)
      | Stamp_plan.Vccs { i; j; k; l; gm } ->
        let y = cx gm 0.0 in
        stamp i k y;
        stamp i l (Complex.neg y);
        stamp j k (Complex.neg y);
        stamp j l y
      | Stamp_plan.Vcvs { b; i; j; k; l; gain } ->
        stamp b i one;
        stamp b j (Complex.neg one);
        stamp b k (cx (-.gain) 0.0);
        stamp b l (cx gain 0.0);
        stamp i b one;
        stamp j b (Complex.neg one)
      | Stamp_plan.Mosfet m ->
        let d = m.Stamp_plan.md and g = m.Stamp_plan.mg
        and s = m.Stamp_plan.ms and b = m.Stamp_plan.mbk in
        let lin =
          Device_eval.mos ~model:m.Stamp_plan.mmodel ~w:m.Stamp_plan.mw
            ~l:m.Stamp_plan.ml ~mult:m.Stamp_plan.mmult ~vd:(volt d)
            ~vg:(volt g) ~vs:(volt s) ~vb:(volt b)
        in
        (* transconductances: id = g_dg vg + g_dd vd + g_ds vs + g_db vb;
           the current leaves the drain node and enters the source node.
           The device capacitances were expanded into Capacitor stamps
           by the plan. *)
        List.iter
          (fun (coeff, node) ->
            stamp d node (cx coeff 0.0);
            stamp s node (cx (-.coeff) 0.0))
          [ (lin.Device_eval.g_dd, d); (lin.Device_eval.g_dg, g);
            (lin.Device_eval.g_ds, s); (lin.Device_eval.g_db, b) ])
    plan.Stamp_plan.elts;
  (* a touch of gmin keeps isolated nodes from making the system singular *)
  for i = 0 to Stamp_plan.n_nodes plan - 1 do
    a.(i).(i) <- Complex.add a.(i).(i) (cx Stamp_plan.node_gmin 0.0)
  done;
  (a, rhs)

let system mna dc ~omega =
  assemble_plan (Stamp_plan.build mna) (Dc.unknowns dc) ~omega

(* Production solve path: compiled G + jwB plan, pattern-reusing sparse
   factorization, per-domain workspace. *)
let solve_at_acp acp ~freq =
  let ws = Ac_plan.domain_workspace acp in
  Ac_plan.prepare_at acp ws ~freq;
  let x = Ac_plan.solve_stimulus acp ws in
  { mna = Stamp_plan.mna (Ac_plan.plan acp); freq; x }

let solve_at_plan plan dc ~freq = solve_at_acp (Ac_plan.of_dc plan dc) ~freq

let solve ?dc netlist ~freq =
  let mna = Mna.build netlist in
  let dc = match dc with Some d -> d | None -> Dc.solve_mna mna in
  solve_at_plan (Stamp_plan.build mna) dc ~freq


let voltage s node =
  let slot = Mna.node_slot s.mna node in
  if slot < 0 then czero else s.x.(slot)

type sweep_point = { freq : float; values : (string * Complex.t) list }

let sweep_plan ?(pool = Pool.default ()) acp ~freqs ~nodes =
  let mna = Stamp_plan.mna (Ac_plan.plan acp) in
  Array.iter
    (fun f -> if f < 0.0 then invalid_arg "Ac.solve: freq must be >= 0")
    freqs;
  (* resolve node names once, not per point *)
  let slots = List.map (fun n -> (n, Mna.node_slot mna n)) nodes in
  (* pin the pivot order before the pool fans out so any jobs width
     produces byte-identical results; a plan that already carries a
     master factorization (a resident-service cache hit) keeps it, so
     batched and individual dispatches over one plan agree bit for
     bit *)
  if Array.length freqs > 0 then Ac_plan.ensure_master acp ~freq:freqs.(0);
  Pool.map_array pool
    (fun freq ->
      (* per-point cancellation tick: a deadline-armed sweep stops at
         the next point boundary (one refill+solve) *)
      N.Cancel.tick ();
      let ws = Ac_plan.domain_workspace acp in
      Ac_plan.prepare_at acp ws ~freq;
      let x = Ac_plan.solve_stimulus acp ws in
      {
        freq;
        values =
          List.map (fun (n, s) -> (n, if s < 0 then czero else x.(s))) slots;
      })
    freqs

let sweep ?pool ?dc netlist ~freqs ~nodes =
  let mna = Mna.build netlist in
  let plan = Stamp_plan.build mna in
  let dc = match dc with Some d -> d | None -> Dc.solve_mna mna in
  sweep_plan ?pool (Ac_plan.of_dc plan dc) ~freqs ~nodes
