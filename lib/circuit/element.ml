type t =
  | Resistor of { name : string; n1 : string; n2 : string; ohms : float }
  | Capacitor of { name : string; n1 : string; n2 : string; farads : float }
  | Inductor of { name : string; n1 : string; n2 : string; henries : float }
  | Vsource of {
      name : string;
      np : string;
      nn : string;
      wave : Waveform.t;
      ac_mag : float;
    }
  | Isource of {
      name : string;
      np : string;
      nn : string;
      wave : Waveform.t;
      ac_mag : float;
    }
  | Vccs of {
      name : string;
      np : string;
      nn : string;
      cp : string;
      cn : string;
      gm : float;
    }
  | Vcvs of {
      name : string;
      np : string;
      nn : string;
      cp : string;
      cn : string;
      gain : float;
    }
  | Mosfet of {
      name : string;
      drain : string;
      gate : string;
      source : string;
      bulk : string;
      model : Mos_model.t;
      w : float;
      l : float;
      mult : int;
    }
  | Varactor of {
      name : string;
      n1 : string;
      n2 : string;
      model : Varactor_model.t;
      mult : int;
    }

let name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Inductor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Vccs { name; _ }
  | Vcvs { name; _ }
  | Mosfet { name; _ }
  | Varactor { name; _ } ->
    name

let nodes = function
  | Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } | Inductor { n1; n2; _ }
  | Varactor { n1; n2; _ } ->
    [ n1; n2 ]
  | Vsource { np; nn; _ } | Isource { np; nn; _ } -> [ np; nn ]
  | Vccs { np; nn; cp; cn; _ } | Vcvs { np; nn; cp; cn; _ } ->
    [ np; nn; cp; cn ]
  | Mosfet { drain; gate; source; bulk; _ } -> [ drain; gate; source; bulk ]

let is_ground n =
  match String.lowercase_ascii n with "0" | "gnd" -> true | _ -> false

let validate e =
  let check cond msg = if cond then Ok () else Error (name e ^ ": " ^ msg) in
  (* R and C admit negative values: reduced-order macromodels
     (Snoise.Reduced_model) realize as branch networks whose
     off-diagonal couplings carry arbitrary sign.  Zero, nan and inf
     stay invalid — they stamp a broken matrix. *)
  let finite_nonzero v = Float.is_finite v && v <> 0.0 in
  match e with
  | Resistor { ohms; _ } ->
    check (finite_nonzero ohms) "resistance must be finite and nonzero"
  | Capacitor { farads; _ } ->
    check (finite_nonzero farads) "capacitance must be finite and nonzero"
  | Inductor { henries; _ } -> check (henries > 0.0) "inductance must be > 0"
  | Vsource _ | Isource _ | Vcvs _ -> Ok ()
  | Vccs { gm; _ } -> check (Float.is_nan gm = false) "gm must be a number"
  | Mosfet { w; l; mult; _ } ->
    Result.bind (check (w > 0.0 && l > 0.0) "W and L must be > 0") (fun () ->
        check (mult >= 1) "multiplicity must be >= 1")
  | Varactor { mult; model; _ } ->
    Result.bind (check (mult >= 1) "multiplicity must be >= 1") (fun () ->
        check
          (model.Varactor_model.cmin > 0.0
           && model.Varactor_model.cmax >= model.Varactor_model.cmin)
          "need 0 < cmin <= cmax")
