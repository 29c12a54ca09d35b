module C = Sn_circuit
module N = Sn_numerics
module Sub = Sn_substrate
module Itc = Sn_interconnect
module Tc = Sn_testchip
module Ns = Tc.Nmos_structure
module Vc = Tc.Vco_chip
module Impact = Sn_rf.Impact
module Dc = Sn_engine.Dc
module Ac = Sn_engine.Ac

let log_src = Logs.Src.create "sn.flow" ~doc:"impact simulation flow"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = {
  grid : Sub.Grid.config;
  tiles : int * int;
  interconnect_resistance : bool;
  widen_ground : float option;
  tech : Sn_tech.Tech.t;
  lint : bool;
  reduce : Reduced_model.config option;
  pool : Sn_engine.Pool.t option;
}

let default_options =
  {
    grid = { Sub.Grid.nx = 48; ny = 48; z_per_layer = Some [ 1; 4; 3; 2 ] };
    tiles = (1, 1);
    interconnect_resistance = true;
    widen_ground = None;
    tech = Sn_tech.Tech.imec018;
    lint = true;
    reduce = None;
    pool = None;
  }

let pool_of options =
  match options.pool with Some p -> p | None -> Sn_engine.Pool.default ()

(* ------------------------------------------------------------------ *)
(* lint gate: merged models pass the Sn_analysis rule suite before the
   engine sees them.  Errors refuse to simulate (raised as a
   Diag.Bad_input); a built flow logs each distinct warning once — bias
   sweeps re-merge the same structure dozens of times and repeating
   identical warnings would bury the report. *)

module A = Sn_analysis

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* a thread-safe "first time for this key?" test: one per built flow,
   which pool workers share *)
let first_time () =
  let seen = Hashtbl.create 16 and lock = Mutex.create () in
  fun key ->
    with_lock lock (fun () ->
        (not (Hashtbl.mem seen key)) && (Hashtbl.replace seen key (); true))

let gate ?(enabled = true) ?(fresh = fun _ -> true) nl =
  if enabled then begin
    let report = A.Analyzer.analyze nl in
    List.iter
      (fun (d : A.Rule.diagnostic) ->
        if fresh (d.A.Rule.code ^ ":" ^ d.A.Rule.message) then
          Log.warn (fun m -> m "lint: %a" A.Rule.pp_diagnostic d))
      (A.Analyzer.warnings report);
    match A.Analyzer.errors report with
    | [] -> ()
    | errs ->
      let what =
        String.concat "; "
          (List.map
             (fun (d : A.Rule.diagnostic) ->
               Printf.sprintf "%s: %s" d.A.Rule.code d.A.Rule.message)
             errs)
      in
      raise
        (Sn_engine.Diag.Error
           (Sn_engine.Diag.Bad_input
              { loc = Sn_engine.Diag.loc "lint"; what }))
  end

let lint_gate ?enabled nl = gate ?enabled nl

(* ------------------------------------------------------------------ *)
(* numerical pre-flight: everything the lint gate checks, plus the raw
   conditioning / stiffness / passivity analyses behind the numeric
   rules, plus — when a reduction is configured — a dry run of the
   deck rewrite to confirm its pencil certifies.  One static pass over
   the deck that predicts the gmin / step-truncation / instability
   trouble the engine would otherwise discover mid-solve. *)

type reduction_verdict = Not_reduced | Certified | Refused

let reduction_verdict_name = function
  | Not_reduced -> "not-reduced"
  | Certified -> "certified"
  | Refused -> "refused"

type preflight = {
  pf_report : A.Analyzer.report;
  pf_spans : A.Numeric.span list;
  pf_stiffness : A.Numeric.stiffness option;
  pf_pool : A.Numeric.pool_defect list;
  pf_reduction : reduction_verdict;
}

let preflight ?config ?reduce nl =
  let report = A.Analyzer.analyze ?config nl in
  let ctx = A.Rule.context nl in
  let reduction =
    match reduce with
    | None -> Not_reduced
    | Some rc -> (
      match snd (Reduced_model.reduce_deck_certified ~config:rc nl) with
      | None -> Not_reduced
      | Some (_, Some _) -> Certified
      | Some (_, None) -> Refused)
  in
  {
    pf_report = report;
    pf_spans = A.Numeric.conditioning ctx;
    pf_stiffness = A.Numeric.stiffness ctx;
    pf_pool = A.Numeric.pool_passivity ctx;
    pf_reduction = reduction;
  }

(* verify is a gate, not a report: any finding — warnings included —
   or an uncertifiable reduction refuses the deck *)
let preflight_failing p =
  p.pf_report.A.Analyzer.diagnostics <> [] || p.pf_reduction = Refused

(* ------------------------------------------------------------------ *)
(* compiled decks: the resident-service hot path.  One value holds the
   parse -> lint -> MNA -> stamp-plan chain of a deck, with the DC
   operating point and the complex AC plan memoized behind a mutex so
   a long-lived process pays each stage exactly once however many
   requests hit the deck (and from whichever thread). *)

type compiled = {
  c_netlist : C.Netlist.t;
  c_mna : Sn_engine.Mna.t;
  c_plan : Sn_engine.Stamp_plan.t;
  c_lock : Mutex.t;
  mutable c_bias : Dc.solution option;
  mutable c_acp : Sn_engine.Ac_plan.t option;
}

let compile_deck ?(lint = true) nl =
  lint_gate ~enabled:lint nl;
  let mna = Sn_engine.Mna.build nl in
  {
    c_netlist = nl;
    c_mna = mna;
    c_plan = Sn_engine.Stamp_plan.build mna;
    c_lock = Mutex.create ();
    c_bias = None;
    c_acp = None;
  }

let compiled_netlist c = c.c_netlist
let compiled_mna c = c.c_mna

(* callers hold c_lock *)
let bias_locked c =
  match c.c_bias with
  | Some b -> b
  | None ->
    let b = Dc.solve_plan c.c_plan in
    c.c_bias <- Some b;
    b

let compiled_bias c = with_lock c.c_lock (fun () -> bias_locked c)

let compiled_bias_cached c = with_lock c.c_lock (fun () -> c.c_bias <> None)

let compiled_ac_plan c =
  with_lock c.c_lock (fun () ->
      match c.c_acp with
      | Some a -> a
      | None ->
        let a = Sn_engine.Ac_plan.of_dc c.c_plan (bias_locked c) in
        c.c_acp <- Some a;
        a)

(* ------------------------------------------------------------------ *)
(* the Fig. 2 pipeline over a structure description *)

type extracted = {
  structure : Tc.Structure.t;
  options : options;
  macromodel : Sub.Macromodel.t;
  interconnect : Itc.Rc_netlist.t;
  fresh_warning : string -> bool;
}

let extract ?(options = default_options) (s : Tc.Structure.t) =
  let layout =
    match options.widen_ground with
    | None -> s.layout
    | Some factor -> Itc.Extract.widen_net ~net:s.ground_net ~factor s.layout
  in
  let report =
    Itc.Extract.extract
      ~options:
        { Itc.Extract.default_options with
          Itc.Extract.include_resistance = options.interconnect_resistance;
          substrate_node = s.substrate_node }
      ~tech:options.tech layout
  in
  (* the reduction's digest tags the tile cache: reduced and exact runs
     must never share cached artifacts *)
  let macromodel =
    Sub.Extractor.extract_from_layout ~config:options.grid
      ~tiles:options.tiles
      ?reduction:(Option.map Reduced_model.config_digest options.reduce)
      ?pool:options.pool ~tech:options.tech layout
  in
  Log.info (fun m ->
      m "%s: %d wires, %d substrate ports" (Sn_layout.Layout.top_name layout)
        report.Itc.Extract.wires_extracted
        (Sub.Macromodel.port_count macromodel));
  { structure = s; options; macromodel;
    interconnect = report.Itc.Extract.netlist;
    fresh_warning = first_time () }

let merge x (d : Tc.Structure.deck) =
  let nl =
    C.Netlist.create ~title:d.title
      (d.elements
      @ Merge.of_macromodel x.macromodel
      @ Merge.of_rc_netlist x.interconnect)
  in
  (* the passive pool swapped for the configured PRIMA realization, and
     the stats of that reduction ([None] when exact) *)
  let nl, reduction =
    match x.options.reduce with
    | None -> (nl, None)
    | Some config ->
      let nl, reduced =
        Reduced_model.reduce_deck_certified ~config ~keep:d.keep nl
      in
      (nl, Option.bind reduced (fun (model, _) -> Reduced_model.stats model))
  in
  gate ~enabled:x.options.lint ~fresh:x.fresh_warning nl;
  (nl, reduction)

let ground_wire_resistance x =
  let a, b = x.structure.Tc.Structure.ground_wire in
  Itc.Rc_netlist.resistance_between x.interconnect a b

(* the AC transfer from the injection node to [node] *)
let transfer x s node =
  Complex.norm (Ac.voltage s node)
  /. Complex.norm (Ac.voltage s x.structure.Tc.Structure.inject)

(* ------------------------------------------------------------------ *)
(* NMOS measurement structure *)

type nmos_flow = { nmos_params : Ns.params; nmos : extracted }

let build_nmos ?options params =
  { nmos_params = params; nmos = extract ?options (Ns.structure params) }

let nmos_ground_wire_resistance f = ground_wire_resistance f.nmos

let nmos_divider f =
  let nl, _ = merge f.nmos (Ns.passive f.nmos_params) in
  transfer f.nmos (Ac.solve nl ~freq:1.0e6) Ns.bulk

type nmos_point = {
  vgs : float;
  vds : float;
  gmb_total : float;
  gds_total : float;
  transfer_sim_db : float;
  transfer_hand_db : float;
}

let nmos_transfer f ~divider ~vgs ~vds ~freq =
  let nl, _ = merge f.nmos (Ns.biased f.nmos_params ~vgs ~vds) in
  let dc = Dc.solve nl in
  let gmb_total, gds_total = Ns.small_signal f.nmos_params dc in
  let transfer_sim = transfer f.nmos (Ac.solve ~dc nl ~freq) Ns.drain in
  let transfer_hand = divider *. gmb_total /. gds_total in
  { vgs; vds; gmb_total; gds_total;
    transfer_sim_db = N.Units.db_of_ratio transfer_sim;
    transfer_hand_db = N.Units.db_of_ratio transfer_hand }

(* ------------------------------------------------------------------ *)
(* VCO *)

type vco_flow = {
  vco_params : Vc.params;
  vco : extracted;
  vco_nl : C.Netlist.t;
  vco_dc : Dc.solution;
  vco_reduction : Reduced_model.stats option;
  oscillator : Impact.oscillator;
  tank_cm_resistance : float;
}

let build_vco ?options params ~vtune =
  let x = extract ?options (Vc.structure params) in
  let nl, reduction = merge x (Vc.deck params ~vtune) in
  let dc = Dc.solve nl in
  let oscillator, tank_cm_resistance = Vc.readout params dc in
  Log.info (fun m ->
      m "vco: fc = %s, amplitude %.2f V, R_cm = %.0f ohm"
        (N.Units.eng ~unit:"Hz" oscillator.Impact.carrier_freq)
        oscillator.Impact.amplitude tank_cm_resistance);
  { vco_params = params; vco = x; vco_nl = nl; vco_dc = dc;
    vco_reduction = reduction; oscillator; tank_cm_resistance }

let vco_merged f = f.vco_nl
let vco_oscillator f = f.oscillator

let vco_ground_wire_resistance f = ground_wire_resistance f.vco

let vco_reduction f = f.vco_reduction
let vco_carrier_freq f = f.oscillator.Impact.carrier_freq
let vco_amplitude f = f.oscillator.Impact.amplitude

let vco_transfers f ~f_noise =
  let nodes =
    List.map snd Vc.sensitive_nodes @ [ f.vco.structure.Tc.Structure.inject ]
    |> List.sort_uniq String.compare
  in
  let points =
    Ac.sweep ?pool:f.vco.options.pool ~dc:f.vco_dc f.vco_nl ~freqs:f_noise
      ~nodes
  in
  let table = Hashtbl.create 64 in
  Array.iter
    (fun (p : Ac.sweep_point) ->
      List.iter
        (fun (node, v) -> Hashtbl.replace table (p.Ac.freq, node) v)
        p.Ac.values)
    points;
  let c_ind = 2.0 *. f.vco_params.Vc.inductor_sub_cap in
  let inductor_node = List.assoc Sn_rf.Tank.Inductor_node Vc.sensitive_nodes in
  let r_cm = f.tank_cm_resistance in
  let lookup freq node =
    match Hashtbl.find_opt table (freq, node) with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Flow.vco_transfers: %g Hz at node %s was not swept"
           freq node)
  in
  fun freq node ->
    let raw = lookup freq node in
    if String.equal node inductor_node then begin
      (* capacitive injection through the coil metal onto the tank
         common mode: H = v_bulk * j omega C_ind R_cm *)
      let omega = N.Units.two_pi *. freq in
      Complex.mul raw { Complex.re = 0.0; im = omega *. c_ind *. r_cm }
    end
    else raw

let paper_noise_dbm = -5.0

let vco_spur f ~h ~p_noise_dbm ~f_noise =
  let a_noise = N.Units.vpeak_of_dbm p_noise_dbm in
  Impact.spur f.oscillator ~h:(h f_noise) ~a_noise ~f_noise
