module G = Sn_geometry
module C = Sn_circuit
module E = C.Element
module N = Sn_numerics
module Sub = Sn_substrate
module Itc = Sn_interconnect
module Tc = Sn_testchip
module Tank = Sn_rf.Tank
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

(* the deck with its passive pool swapped for the configured PRIMA
   realization, and the stats of that reduction ([None] when exact) *)
let maybe_reduce options ~keep nl =
  match options.reduce with
  | None -> (nl, None)
  | Some config ->
    let nl, reduced = Reduced_model.reduce_deck_certified ~config ~keep nl in
    (nl, Option.bind reduced (fun (model, _) -> Reduced_model.stats model))

(* substrate tile-cache namespace tag: reduced and exact runs must
   never share cached artifacts *)
let reduction_digest options =
  Option.map Reduced_model.config_digest options.reduce

(* ------------------------------------------------------------------ *)
(* lint gate: merged models pass the Sn_analysis rule suite before the
   engine sees them.  Errors refuse to simulate (raised as a
   Diag.Bad_input); warnings are logged once per distinct message —
   bias sweeps re-merge the same structure dozens of times and
   repeating identical warnings would bury the report. *)

module A = Sn_analysis

let warned : (string, unit) Hashtbl.t = Hashtbl.create 16

let warned_lock = Mutex.create ()

let lint_gate ?(enabled = true) nl =
  if enabled then begin
    let report = A.Analyzer.analyze nl in
    List.iter
      (fun (d : A.Rule.diagnostic) ->
        let key = d.A.Rule.code ^ ":" ^ d.A.Rule.message in
        let fresh =
          Mutex.lock warned_lock;
          let f = not (Hashtbl.mem warned key) in
          if f then Hashtbl.replace warned key ();
          Mutex.unlock warned_lock;
          f
        in
        if fresh then
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
let compiled_plan c = c.c_plan

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

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

let noise_elements ~inject_node =
  [
    E.Vsource { name = "vnoise"; np = "sub_drive"; nn = "0";
                wave = C.Waveform.dc 0.0; ac_mag = 1.0 };
    E.Resistor { name = "rs_noise"; n1 = "sub_drive"; n2 = inject_node;
                 ohms = 50.0 };
  ]

(* the VCO sits inside the chip's pad frame (paper Fig. 6); its seal
   ring substrate tap is hard-grounded through the many pads it
   touches.  The standalone NMOS structure (paper Fig. 4) has no such
   frame — its outer guard ring is its outermost feature. *)
let frame_elements =
  [ E.Resistor { name = "rframe"; n1 = "frame"; n2 = "0"; ohms = 0.2 } ]

(* ------------------------------------------------------------------ *)
(* NMOS measurement structure *)

type nmos_flow = {
  nmos_params : Tc.Nmos_structure.params;
  nmos_macro : Sub.Macromodel.t;
  nmos_itc : Itc.Rc_netlist.t;
  nmos_options : options;
}

let itc_options options ~substrate_node =
  { Itc.Extract.default_options with
    Itc.Extract.include_resistance = options.interconnect_resistance;
    substrate_node }

let build_nmos ?(options = default_options) params =
  let layout = Tc.Nmos_structure.layout params in
  let layout =
    match options.widen_ground with
    | None -> layout
    | Some factor -> Itc.Extract.widen_net ~net:"gnd" ~factor layout
  in
  let report =
    Itc.Extract.extract
      ~options:(itc_options options ~substrate_node:"gr")
      ~tech:options.tech layout
  in
  let macro =
    Sub.Extractor.extract_from_layout ~config:options.grid
      ~tiles:options.tiles ?reduction:(reduction_digest options)
      ?pool:options.pool ~tech:options.tech layout
  in
  Log.info (fun m ->
      m "nmos structure: %d wires, %d substrate ports"
        report.Itc.Extract.wires_extracted
        (Sub.Macromodel.port_count macro));
  { nmos_params = params; nmos_macro = macro;
    nmos_itc = report.Itc.Extract.netlist; nmos_options = options }

let nmos_macromodel f = f.nmos_macro

let nmos_ground_wire_resistance f =
  Itc.Rc_netlist.resistance_between f.nmos_itc "mos_gr" "gnd_pad"

(* The structure without the transistor: noise source, extracted
   models, and the probe tying the pad to off-chip ground. *)
let nmos_passive_netlist f =
  C.Netlist.create ~title:"nmos structure, passive"
    (noise_elements ~inject_node:"sub_inject"
    @ [ E.Resistor { name = "rprobe"; n1 = "gnd_pad"; n2 = "0";
                     ohms = f.nmos_params.Tc.Nmos_structure.probe_resistance };
        E.Resistor { name = "rprobe_gr"; n1 = "gr_pad"; n2 = "0";
                     ohms = f.nmos_params.Tc.Nmos_structure.probe_resistance } ]
    @ Merge.of_macromodel f.nmos_macro
    @ Merge.of_rc_netlist f.nmos_itc)
  (* sub_inject and the back-gate probe are passive-touched only: the
     divider observes them, so reduction must keep them explicit *)
  |> maybe_reduce f.nmos_options ~keep:[ "sub_inject"; "backgate:m1" ]
  |> fst

let nmos_divider f =
  let nl = nmos_passive_netlist f in
  lint_gate ~enabled:f.nmos_options.lint nl;
  let s = Ac.solve nl ~freq:1.0e6 in
  Complex.norm (Ac.voltage s "backgate:m1")
  /. Complex.norm (Ac.voltage s "sub_inject")

let nmos_merged f ~vgs ~vds =
  C.Netlist.create ~title:"nmos structure, merged impact model"
    (C.Netlist.elements (Tc.Nmos_structure.device_netlist f.nmos_params ~vgs ~vds)
    @ noise_elements ~inject_node:"sub_inject"
    @ Merge.of_macromodel f.nmos_macro
    @ Merge.of_rc_netlist f.nmos_itc)
  |> maybe_reduce f.nmos_options ~keep:[ "sub_inject" ]
  |> fst

type nmos_point = {
  vgs : float;
  vds : float;
  gmb_total : float;
  gds_total : float;
  transfer_sim_db : float;
  transfer_hand_db : float;
}

let nmos_transfer f ~vgs ~vds ~freq =
  let nl = nmos_merged f ~vgs ~vds in
  lint_gate ~enabled:f.nmos_options.lint nl;
  let dc = Dc.solve nl in
  let op = Dc.mos_operating_point dc "m1" in
  let mult = float_of_int f.nmos_params.Tc.Nmos_structure.parallel_devices in
  let gmb_total = mult *. op.C.Mos_model.gmb in
  let gds_total = mult *. op.C.Mos_model.gds in
  let s = Ac.solve ~dc nl ~freq in
  let transfer_sim =
    Complex.norm (Ac.voltage s "d") /. Complex.norm (Ac.voltage s "sub_inject")
  in
  let divider = nmos_divider f in
  let transfer_hand = divider *. gmb_total /. gds_total in
  {
    vgs;
    vds;
    gmb_total;
    gds_total;
    transfer_sim_db = N.Units.db_of_ratio transfer_sim;
    transfer_hand_db = N.Units.db_of_ratio transfer_hand;
  }

(* ------------------------------------------------------------------ *)
(* VCO *)

type vco_flow = {
  vco_params : Tc.Vco_chip.params;
  vco_macro : Sub.Macromodel.t;
  vco_itc : Itc.Rc_netlist.t;
  vco_nl : C.Netlist.t;
  vco_dc : Dc.solution;
  vco_pool : Sn_engine.Pool.t option;
  vco_reduction : Reduced_model.stats option;
  bias : Tank.bias;
  oscillator : Impact.oscillator;
  tank_cm_resistance : float;
}

(* AM gains per entry (1/V): small, so AM stays far below FM as the
   paper observes; the ground and supply entries modulate the bias
   hardest. *)
let g_am_of_entry = function
  | Tank.Ground -> 0.5
  | Tank.Backgate -> 0.05
  | Tank.Pmos_well -> 0.3
  | Tank.Varactor_well -> 0.05
  | Tank.Inductor_node -> 0.1
  | Tank.Supply -> 0.3

let build_vco ?(options = default_options) params ~vtune =
  let layout = Tc.Vco_chip.layout params in
  let layout =
    match options.widen_ground with
    | None -> layout
    | Some factor -> Itc.Extract.widen_net ~net:"vss" ~factor layout
  in
  let report =
    Itc.Extract.extract
      ~options:(itc_options options ~substrate_node:"backgate:sub_ind")
      ~tech:options.tech layout
  in
  let macro =
    Sub.Extractor.extract_from_layout ~config:options.grid
      ~tiles:options.tiles ?reduction:(reduction_digest options)
      ?pool:options.pool ~tech:options.tech layout
  in
  let circuit = Tc.Vco_chip.circuit params ~vtune in
  let merged, reduction =
    C.Netlist.create ~title:"vco merged impact model"
      (C.Netlist.elements circuit
      @ frame_elements
      @ Merge.of_macromodel macro
      @ Merge.of_rc_netlist report.Itc.Extract.netlist)
    (* every node the spur flow observes or the bias read-out touches
       must survive reduction; most are device-touched anyway, but the
       injection node and the inductor back-gate are passive-only *)
    |> maybe_reduce options
         ~keep:
           (List.sort_uniq String.compare
              (List.map snd Tc.Vco_chip.sensitive_nodes
              @ [ "sub_inject"; "vtune_pad"; "vss_local"; "tank_p";
                  "backgate:mn1"; "vdd_local" ]))
  in
  lint_gate ~enabled:options.lint merged;
  let dc = Dc.solve merged in
  let v node = Dc.voltage dc node in
  let bias =
    {
      Tank.v_tune = v "vtune_pad";
      v_gnd = v "vss_local";
      v_tank_cm = v "tank_p" -. v "vss_local";
      v_backgate = v "backgate:mn1";
      v_nwell = v "vdd_local";
    }
  in
  let tank = params.Tc.Vco_chip.tank in
  let fc = Tank.frequency tank bias in
  (* amplitude: current-limited level in the tank's parallel
     resistance, clipped by the supply, then the output coupling to
     the 50 ohm measurement chain *)
  let omega = N.Units.two_pi *. fc in
  let q_l = omega *. tank.Tank.inductance /. params.Tc.Vco_chip.inductor_series_r in
  let rp = q_l *. q_l *. params.Tc.Vco_chip.inductor_series_r in
  let swing =
    Float.min
      (4.0 /. N.Units.pi *. params.Tc.Vco_chip.tail_current *. rp)
      (0.45 *. 1.8)
  in
  let amplitude = 0.5 *. swing in
  let entries =
    List.map
      (fun (entry, node) ->
        {
          Impact.label = Tank.entry_name entry;
          node;
          k_hz_per_v = Tank.sensitivity tank bias entry;
          g_am_per_v = g_am_of_entry entry;
        })
      Tc.Vco_chip.sensitive_nodes
  in
  let oscillator = { Impact.carrier_freq = fc; amplitude; entries } in
  (* tank common-mode resistance for the inductor entry's capacitive
     transfer: the cross-coupled devices' output conductances *)
  let gds_of name mult =
    float_of_int mult *. (Dc.mos_operating_point dc name).C.Mos_model.gds
  in
  let g_cm =
    gds_of "mn1" 1 +. gds_of "mn2" 1 +. gds_of "mp1" 2 +. gds_of "mp2" 2
  in
  let tank_cm_resistance = if g_cm > 0.0 then 1.0 /. g_cm else 1.0e3 in
  Log.info (fun m ->
      m "vco: fc = %s, amplitude %.2f V, R_cm = %.0f ohm"
        (N.Units.eng ~unit:"Hz" fc) amplitude tank_cm_resistance);
  {
    vco_params = params;
    vco_macro = macro;
    vco_itc = report.Itc.Extract.netlist;
    vco_nl = merged;
    vco_dc = dc;
    vco_pool = options.pool;
    vco_reduction = reduction;
    bias;
    oscillator;
    tank_cm_resistance;
  }

let vco_merged f = f.vco_nl
let vco_oscillator f = f.oscillator

let vco_ground_wire_resistance f =
  Itc.Rc_netlist.resistance_between f.vco_itc "vss_ring" "vss_pad"

let vco_reduction f = f.vco_reduction
let vco_carrier_freq f = f.oscillator.Impact.carrier_freq
let vco_amplitude f = f.oscillator.Impact.amplitude

let inductor_node = "backgate:sub_ind"

let vco_transfers f ~f_noise =
  let nodes =
    List.map snd Tc.Vco_chip.sensitive_nodes @ [ "sub_inject" ]
    |> List.sort_uniq String.compare
  in
  let points =
    Ac.sweep ?pool:f.vco_pool ~dc:f.vco_dc f.vco_nl ~freqs:f_noise ~nodes
  in
  let table = Hashtbl.create 64 in
  Array.iter
    (fun (p : Ac.sweep_point) ->
      List.iter
        (fun (node, v) -> Hashtbl.replace table (p.Ac.freq, node) v)
        p.Ac.values)
    points;
  let c_ind = 2.0 *. f.vco_params.Tc.Vco_chip.inductor_sub_cap in
  let r_cm = f.tank_cm_resistance in
  let freqs = Array.copy f_noise in
  Array.sort compare freqs;
  (* linear interpolation between the swept points for off-grid
     queries *)
  let lookup freq node =
    match Hashtbl.find_opt table (freq, node) with
    | Some v -> v
    | None ->
      let n = Array.length freqs in
      if n = 0 then invalid_arg "vco_transfers: empty frequency sweep";
      if freq <= freqs.(0) then Hashtbl.find table (freqs.(0), node)
      else if freq >= freqs.(n - 1) then
        Hashtbl.find table (freqs.(n - 1), node)
      else begin
        let lo = ref 0 and hi = ref (n - 1) in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if freqs.(mid) <= freq then lo := mid else hi := mid
        done;
        let f0 = freqs.(!lo) and f1 = freqs.(!hi) in
        let v0 = Hashtbl.find table (f0, node) in
        let v1 = Hashtbl.find table (f1, node) in
        let t = (freq -. f0) /. (f1 -. f0) in
        let lerp a b = a +. (t *. (b -. a)) in
        { Complex.re = lerp v0.Complex.re v1.Complex.re;
          im = lerp v0.Complex.im v1.Complex.im }
      end
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
