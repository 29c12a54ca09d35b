(* A netlist compiled once into slot-resolved stamps, and the one rule
   that says where each stamp lands.

   The stamp plan does the symbolic work exactly once per netlist: each
   element becomes a flat record of precomputed unknown indices
   (ground = -1), each dynamic element gets an index into the
   transient state arrays, and the per-MOSFET linear capacitances are
   expanded into ordinary capacitor stamps.  Assemblies then run over
   an array of int-indexed records with no string hashing and no list
   traversal.

   {!stamp} is the MNA stamp rule for every element kind.  The DC and
   transient Newton systems ([Dc.assemble_plan]), the small-signal
   G + jwB split ([Ac_plan.compile]) and the structural pattern below
   all stamp through it and differ only in what they supply: the
   sinks, the source values, the MOSFET linearization and the reactive
   stamps.  The dense AC assembly in the test oracle library
   ([test/support/dense_ac.ml]) stamps on its own, as an independent
   reference for the AC case. *)

module C = Sn_circuit

(* Conductance floor stamped on every node diagonal by the small-signal
   analyses (both the dense reference and the sparse frequency-domain
   paths) so an isolated subnet never makes the system singular.  Small
   enough (1 fS) to be invisible next to any real admittance; the
   Newton paths use the larger [Dc.gmin] instead, which also serves
   their convergence continuation. *)
let node_gmin = 1e-15

type mosfet = {
  md : int;
  mg : int;
  ms : int;
  mbk : int;
  mmodel : C.Mos_model.t;
  mw : float;
  ml : float;
  mmult : int;
}

type elt =
  | Resistor of { i : int; j : int; g : float }
  | Capacitor of { ci : int; i : int; j : int; c : float }
      (* [ci] indexes the transient capacitor-state arrays; covers both
         netlist capacitors and the four linear capacitances of each
         MOSFET *)
  | Varactor of {
      qi : int;
      i : int;
      j : int;
      vmodel : C.Varactor_model.t;
      fm : float;
    }
  | Inductor of { li : int; b : int; i : int; j : int; henries : float }
  | Vsource of { b : int; i : int; j : int; wave : C.Waveform.t; ac_mag : float }
  | Isource of { i : int; j : int; wave : C.Waveform.t; ac_mag : float }
  | Vccs of { i : int; j : int; k : int; l : int; gm : float }
  | Vcvs of { b : int; i : int; j : int; k : int; l : int; gain : float }
  | Mosfet of mosfet

type t = {
  mna : Mna.t;
  dim : int;
  n_nodes : int;
  elts : elt array;
  n_caps : int;
  n_charges : int;
  n_inds : int;
  linear : bool;  (** no MOSFET, no varactor: the MNA matrix is
                      state-independent *)
}

let mna p = p.mna
let dim p = p.dim
let n_nodes p = p.n_nodes
let linear p = p.linear

let build mna =
  let slot = Mna.node_slot mna in
  let bslot = Mna.branch_slot mna in
  let n_caps = ref 0 and n_charges = ref 0 and n_inds = ref 0 in
  let linear = ref true in
  let out = ref [] in
  let emit e = out := e :: !out in
  let fresh r =
    let v = !r in
    incr r;
    v
  in
  List.iter
    (fun e ->
      match e with
      | C.Element.Resistor { n1; n2; ohms; _ } ->
        emit (Resistor { i = slot n1; j = slot n2; g = 1.0 /. ohms })
      | C.Element.Capacitor { n1; n2; farads; _ } ->
        emit
          (Capacitor { ci = fresh n_caps; i = slot n1; j = slot n2; c = farads })
      | C.Element.Varactor { n1; n2; model; mult; _ } ->
        linear := false;
        emit
          (Varactor
             { qi = fresh n_charges; i = slot n1; j = slot n2; vmodel = model;
               fm = float_of_int mult })
      | C.Element.Inductor { name; n1; n2; henries } ->
        emit
          (Inductor
             { li = fresh n_inds; b = bslot name; i = slot n1; j = slot n2;
               henries })
      | C.Element.Vsource { name; np; nn; wave; ac_mag } ->
        emit (Vsource { b = bslot name; i = slot np; j = slot nn; wave; ac_mag })
      | C.Element.Isource { np; nn; wave; ac_mag; _ } ->
        emit (Isource { i = slot np; j = slot nn; wave; ac_mag })
      | C.Element.Vccs { np; nn; cp; cn; gm; _ } ->
        emit
          (Vccs { i = slot np; j = slot nn; k = slot cp; l = slot cn; gm })
      | C.Element.Vcvs { name; np; nn; cp; cn; gain } ->
        emit
          (Vcvs
             { b = bslot name; i = slot np; j = slot nn; k = slot cp;
               l = slot cn; gain })
      | C.Element.Mosfet { drain; gate; source; bulk; model; w; l; mult; _ } ->
        linear := false;
        let d = slot drain and g = slot gate and s = slot source
        and bk = slot bulk in
        emit
          (Mosfet
             { md = d; mg = g; ms = s; mbk = bk; mmodel = model; mw = w;
               ml = l; mmult = mult });
        (* the four linear device capacitances, scaled by multiplicity *)
        let fm = float_of_int mult in
        let cap a b c =
          emit (Capacitor { ci = fresh n_caps; i = a; j = b; c = c *. fm })
        in
        cap g s model.C.Mos_model.cgs;
        cap g d model.C.Mos_model.cgd;
        cap d bk model.C.Mos_model.cdb;
        cap s bk model.C.Mos_model.csb)
    (C.Netlist.elements (Mna.netlist mna));
  {
    mna;
    dim = Mna.dim mna;
    n_nodes = Mna.n_nodes mna;
    elts = Array.of_list (List.rev !out);
    n_caps = !n_caps;
    n_charges = !n_charges;
    n_inds = !n_inds;
    linear = !linear;
  }

let volt x s = if s < 0 then 0.0 else x.(s)

(* ------------------------------------------------------------------ *)
(* The stamp rule.  Matrix entries go to [add] and right-hand-side
   entries to [inject], ground indices (-1) included: the sink drops
   them.  Each caller's event order is fixed by the plan's element
   order, so a pattern recorded on one assembly replays on the next. *)

type sink = {
  add : int -> int -> float -> unit;
  inject : int -> float -> unit;
}

(* where the MOSFET conductances come from *)
type linearization =
  | Newton of float array
      (** at this iterate, with the companion current
          [ieq = id - sum g_t v_t] on the right-hand side *)
  | Bias of float array  (** small-signal at this DC bias *)
  | Units
      (** symbolic: every coefficient 1, so signed units cancel within
          an element exactly where the numeric stamps would *)

let admittance add i j y =
  add i i y;
  add j j y;
  add i j (-.y);
  add j i (-.y)

(* the +-1 coupling of a voltage-defined branch [b] to its terminals *)
let incidence add b i j =
  add b i 1.0;
  add b j (-1.0);
  add i b 1.0;
  add j b (-1.0)

(* drain-current conductances: + on the drain row, - on the source row *)
let mos_rows add m g_dd g_dg g_ds g_db =
  add m.md m.md g_dd;
  add m.md m.mg g_dg;
  add m.md m.ms g_ds;
  add m.md m.mbk g_db;
  add m.ms m.md (-.g_dd);
  add m.ms m.mg (-.g_dg);
  add m.ms m.ms (-.g_ds);
  add m.ms m.mbk (-.g_db)

(* The MOSFET's conductances at the bias [x], stamped; the evaluation
   is returned for the Newton companion current. *)
let linearize add m x =
  let t =
    Device_eval.mos ~model:m.mmodel ~w:m.mw ~l:m.ml ~mult:m.mmult
      ~vd:(volt x m.md) ~vg:(volt x m.mg) ~vs:(volt x m.ms)
      ~vb:(volt x m.mbk)
  in
  mos_rows add m t.Device_eval.g_dd t.g_dg t.g_ds t.g_db;
  t

let coeff lin v = match lin with Units -> 1.0 | Newton _ | Bias _ -> v

(* Stamp one element.  [source wave ac_mag] is an independent source's
   value; [reactive] stamps the capacitor, varactor and inductor
   entries beyond the inductor's incidences. *)
let stamp s ~lin ~source ~reactive e =
  match e with
  | Resistor { i; j; g } -> admittance s.add i j (coeff lin g)
  | Capacitor _ | Varactor _ -> reactive s e
  | Inductor { b; i; j; _ } ->
    incidence s.add b i j;
    reactive s e
  | Vsource { b; i; j; wave; ac_mag } ->
    incidence s.add b i j;
    s.inject b (source wave ac_mag)
  | Isource { i; j; wave; ac_mag } ->
    let v = source wave ac_mag in
    s.inject i (-.v);
    s.inject j v
  | Vccs { i; j; k; l; gm } ->
    let gm = coeff lin gm in
    s.add i k gm;
    s.add i l (-.gm);
    s.add j k (-.gm);
    s.add j l gm
  | Vcvs { b; i; j; k; l; gain } ->
    let gain = coeff lin gain in
    incidence s.add b i j;
    s.add b k (-.gain);
    s.add b l gain
  | Mosfet m -> (
    match lin with
    | Units -> mos_rows s.add m 1.0 1.0 1.0 1.0
    | Bias x -> ignore (linearize s.add m x : Device_eval.mos_linear)
    | Newton x ->
      (* i_d(v) ~ id0 + sum g_t (v_t - v_t0): the companion current *)
      let t = linearize s.add m x in
      let ieq =
        t.id
        -. ((t.g_dd *. volt x m.md) +. (t.g_dg *. volt x m.mg)
           +. (t.g_ds *. volt x m.ms) +. (t.g_db *. volt x m.mbk))
      in
      s.inject m.md (-.ieq);
      s.inject m.ms ieq)

(* Every element, then [gmin] on every node diagonal so an isolated
   subnet never makes the system singular. *)
let assemble s ~lin ~source ~reactive ~gmin p =
  Array.iter (stamp s ~lin ~source ~reactive) p.elts;
  for i = 0 to p.n_nodes - 1 do
    s.add i i gmin
  done

(* ------------------------------------------------------------------ *)
(* Structural zero-nonzero pattern export, consumed by the static
   analyzer (Sn_analysis) for matching-based singularity prediction.

   The pattern is what {!stamp} fills with [Units]: the DC shape is
   that of [Dc.assemble_plan] (dynamic elements open, gmin on every
   node diagonal), the AC shape that of [Ac_plan.compile] (capacitive
   susceptances present, the inductor's branch diagonal, the same
   gmin floor).  Device small-signal parameters are symbolic nonzeros
   — a cutoff MOSFET's conductances stay in the pattern, matching the
   unit-weight pattern compilation of the numeric engines.

   Cancellation is resolved per element with the signed unit weights:
   a stamp group whose coefficients sum to zero at one position (a
   self-looped element's +1/-1 incidence pair, a resistor with both
   terminals on one node) contributes nothing there, exactly as the
   numeric stamps would.  Sums across different elements never cancel
   structurally, so positions are unioned across elements. *)

type pattern = {
  pat_dim : int;  (** unknown count: [dim] of the plan *)
  pat_nodes : int;  (** node-voltage unknowns come first *)
  pat_adj : int array array;
      (** row [i] holds the strictly increasing column indices of the
          structurally nonzero entries of matrix row [i] *)
}

let structural_pattern ~with_dynamic p =
  let global : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let local : (int * int, float ref) Hashtbl.t = Hashtbl.create 16 in
  let add i j v =
    if i >= 0 && j >= 0 then
      match Hashtbl.find_opt local (i, j) with
      | Some r -> r := !r +. v
      | None -> Hashtbl.add local (i, j) (ref v)
  in
  let sink = { add; inject = (fun _ _ -> ()) } in
  let reactive s = function
    | Capacitor { i; j; _ } | Varactor { i; j; _ } ->
      if with_dynamic then admittance s.add i j 1.0
    | Inductor { b; _ } -> if with_dynamic then s.add b b 1.0
    | _ -> ()
  in
  Array.iter
    (fun e ->
      stamp sink ~lin:Units ~source:(fun _ _ -> 0.0) ~reactive e;
      Hashtbl.iter
        (fun pos r -> if !r <> 0.0 then Hashtbl.replace global pos ())
        local;
      Hashtbl.reset local)
    p.elts;
  (* the gmin floor every assembly puts on the node diagonals *)
  for i = 0 to p.n_nodes - 1 do
    Hashtbl.replace global (i, i) ()
  done;
  let rows = Array.make p.dim [] in
  Hashtbl.iter (fun (i, j) () -> rows.(i) <- j :: rows.(i)) global;
  {
    pat_dim = p.dim;
    pat_nodes = p.n_nodes;
    pat_adj =
      Array.map
        (fun cols -> Array.of_list (List.sort_uniq compare cols))
        rows;
  }

let dc_pattern p = structural_pattern ~with_dynamic:false p
let ac_pattern p = structural_pattern ~with_dynamic:true p

(* ------------------------------------------------------------------ *)
(* Magnitude-annotated pattern export, consumed by the numerical
   pre-flight pass of Sn_analysis (conditioning span and stiffness
   spectrum).  Where [structural_pattern] records only which positions
   the assemblies can fill, this records *how big* the fills are, per
   node row, with the contributing element's name attached so the
   analyzer can point at the card that dominates a span.

   Weights mirror the numeric stamps of the DC/AC assembly paths:

   - a resistor adds its conductance magnitude |1/R| to both terminal
     node rows; a VCCS adds |gm| to both output rows;
   - a capacitor (and each expanded MOSFET device capacitance) adds
     its capacitance magnitude — the susceptance scale of the AC path
     and the companion-conductance scale [c/dt] of the transient path;
   - a varactor contributes its worst-case (maximal) capacitance;
   - voltage-defined branches (V, E, L) put unit incidence entries in
     their terminal node rows, so they contribute weight 1.0 exactly
     as assembled;
   - MOSFET channel conductances are bias-dependent and carry no
     static magnitude: they are left out, and the profile says so via
     [prof_nonlinear] so the analyzer can soften its claims;
   - stamps that cancel (both terminals on one node, exactly as the
     signed-unit flush of [structural_pattern]) contribute nothing.

   The gmin floor of every assembly path is exported too, so the
   analyzer reasons about the same matrix the engine factorizes. *)

type node_weight = {
  nw_elt : string;  (** contributing element, by netlist name *)
  nw_g : float;  (** DC conductance / unit-incidence magnitude (0 if none) *)
  nw_c : float;  (** capacitance magnitude (0 for resistive stamps) *)
}

type numeric_profile = {
  prof_nodes : int;  (** node-voltage unknown count *)
  prof_names : string array;  (** node name per slot, [prof_nodes] long *)
  prof_weights : node_weight list array;
      (** index = node slot; every magnitude-carrying stamp that lands
          in that node's row *)
  prof_gmin : float;  (** the {!node_gmin} diagonal floor *)
  prof_nonlinear : bool;
      (** the deck has MOSFETs / varactors whose conductances the
          static profile cannot bound *)
}

let numeric_profile p =
  let slot = Mna.node_slot p.mna in
  let weights = Array.make p.n_nodes [] in
  let add s w = if s >= 0 then weights.(s) <- w :: weights.(s) in
  let pair name a b ~g ~c =
    (* signed-unit cancellation: a stamp with both terminals on one
       node (or both grounded) fills nothing *)
    if a <> b then begin
      add a { nw_elt = name; nw_g = g; nw_c = c };
      add b { nw_elt = name; nw_g = g; nw_c = c }
    end
  in
  let nonlinear = ref false in
  List.iter
    (fun e ->
      match e with
      | C.Element.Resistor { name; n1; n2; ohms } ->
        pair name (slot n1) (slot n2) ~g:(Float.abs (1.0 /. ohms)) ~c:0.0
      | C.Element.Capacitor { name; n1; n2; farads } ->
        pair name (slot n1) (slot n2) ~g:0.0 ~c:(Float.abs farads)
      | C.Element.Varactor { name; n1; n2; model; mult } ->
        nonlinear := true;
        let c =
          Float.max model.C.Varactor_model.cmin model.C.Varactor_model.cmax
          *. float_of_int mult
        in
        pair name (slot n1) (slot n2) ~g:0.0 ~c
      | C.Element.Inductor { name; n1; n2; _ } ->
        (* DC short through a branch: unit incidence in both node rows *)
        pair name (slot n1) (slot n2) ~g:1.0 ~c:0.0
      | C.Element.Vsource { name; np; nn; _ }
      | C.Element.Vcvs { name; np; nn; _ } ->
        pair name (slot np) (slot nn) ~g:1.0 ~c:0.0
      | C.Element.Isource _ -> ()
      | C.Element.Vccs { name; np; nn; cp; cn; gm } ->
        if slot cp <> slot cn then
          pair name (slot np) (slot nn) ~g:(Float.abs gm) ~c:0.0
      | C.Element.Mosfet { name; drain; gate; source; bulk; model; mult; _ }
        ->
        nonlinear := true;
        (* channel conductances are bias-dependent — only the four
           linear device capacitances carry a static magnitude *)
        let fm = float_of_int mult in
        let cap a b c =
          pair name (slot a) (slot b) ~g:0.0 ~c:(Float.abs (c *. fm))
        in
        cap gate source model.C.Mos_model.cgs;
        cap gate drain model.C.Mos_model.cgd;
        cap drain bulk model.C.Mos_model.cdb;
        cap source bulk model.C.Mos_model.csb)
    (C.Netlist.elements (Mna.netlist p.mna));
  {
    prof_nodes = p.n_nodes;
    prof_names = Mna.node_names p.mna;
    prof_weights = weights;
    prof_gmin = node_gmin;
    prof_nonlinear = !nonlinear;
  }
