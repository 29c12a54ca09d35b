type t = {
  name : string;
  cmin : float;
  cmax : float;
  v0 : float;
  vslope : float;
}

let default =
  { name = "varacc"; cmin = 250.0e-15; cmax = 750.0e-15; v0 = 0.45;
    vslope = 0.35 }

(* C(v) = cmin + (cmax - cmin) * (1 + tanh ((v - v0) / vs)) / 2 *)
let capacitance m v =
  m.cmin +. ((m.cmax -. m.cmin) *. 0.5 *. (1.0 +. tanh ((v -. m.v0) /. m.vslope)))

(* log (cosh x) computed overflow-safely *)
let log_cosh x =
  let ax = Float.abs x in
  if ax > 20.0 then ax -. log 2.0 else log (cosh x)

let charge m v =
  let half = 0.5 *. (m.cmax -. m.cmin) in
  let term x = m.vslope *. log_cosh ((x -. m.v0) /. m.vslope) in
  (m.cmin *. v) +. (half *. (v +. term v -. term 0.0))
