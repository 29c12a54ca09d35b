module N = Sn_numerics

type solution = {
  mna : Mna.t;
  freq : float;
  x : Complex.t array;
}

let czero = Complex.zero

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
