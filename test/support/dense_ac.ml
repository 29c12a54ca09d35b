module C = Sn_circuit
module Stamp_plan = Sn_engine.Stamp_plan
module Device_eval = Sn_engine.Device_eval

let cx re im = { Complex.re; im }
let czero = Complex.zero

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
  assemble_plan (Stamp_plan.build mna) (Sn_engine.Dc.unknowns dc) ~omega
