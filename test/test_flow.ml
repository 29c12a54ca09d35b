(* Integration tests: the full methodology against the paper's
   reported numbers.  Each figure/table of the evaluation section has
   its acceptance band asserted here (documented in EXPERIMENTS.md).

   The experiment fixtures are lazy so each expensive extraction runs
   once and is shared by all assertions on it. *)

module E = Snoise.Experiments
module Flow = Snoise.Flow
module Merge = Snoise.Merge
module Impact = Sn_rf.Impact

let fig3 = lazy (E.fig3 ())
let sec3 = lazy (E.sec3_numbers ())
let fig7 = lazy (E.fig7 ())
let fig8 = lazy (E.fig8 ())
let fig9 = lazy (E.fig9 ())
let fig10 = lazy (E.fig10 ())
let card = lazy (E.vco_card ())
let ablations = lazy (E.ablations ())

let check_band name lo hi v =
  Alcotest.(check bool)
    (Printf.sprintf "%s = %g in [%g, %g]" name v lo hi)
    true
    (v >= lo && v <= hi)

(* ------------------------------------------------------------------ *)
(* Figure 3 / section 3 *)

let test_fig3_divider () =
  let r = Lazy.force fig3 in
  (* paper: 1/652; band: same order, within ~4 dB *)
  check_band "division ratio" 400.0 1200.0 (1.0 /. r.E.divider)

let test_fig3_r_factor () =
  let r = Lazy.force fig3 in
  (* paper: interconnect R raises v_bs by "almost a factor two" *)
  check_band "R factor" 1.5 3.0 (r.E.divider /. r.E.divider_no_r)

let test_fig3_transfer_band () =
  let r = Lazy.force fig3 in
  (* paper: -45 to -52 dB across the bias sweep *)
  List.iter
    (fun (p : Flow.nmos_point) ->
      check_band "transfer" (-57.0) (-42.0) p.Flow.transfer_sim_db)
    r.E.points

let test_fig3_hand_calculation_agreement () =
  let r = Lazy.force fig3 in
  (* paper: the back-gate + interconnect model explains the impact
     within a maximal error of 1 dB *)
  Alcotest.(check bool)
    (Printf.sprintf "max hand error %.2f <= 1 dB" r.E.max_hand_error_db)
    true
    (r.E.max_hand_error_db <= 1.0)

let test_fig3_transfer_decreases_with_bias () =
  let r = Lazy.force fig3 in
  (* gmb/gds falls with bias, so the transfer must fall monotonically *)
  let rec check = function
    | (a : Flow.nmos_point) :: (b :: _ as rest) ->
      Alcotest.(check bool) "monotone" true
        (b.Flow.transfer_sim_db < a.Flow.transfer_sim_db);
      check rest
    | [ _ ] | [] -> ()
  in
  check r.E.points

(* A cold extraction of the NMOS structure at the paper's settings
   stays within a fixed CG budget: the semi-coarsened multigrid keeps
   the iteration count flat under the layered profile's anisotropy, and
   a hierarchy regression shows up here as a count, not a slowdown. *)
let test_fig3_cold_extraction_cg_budget () =
  ignore
    (Flow.build_nmos ~options:Flow.default_options
       Sn_testchip.Nmos_structure.default);
  match Sn_substrate.Extractor.last_stats () with
  | None -> Alcotest.fail "extractor recorded no stats"
  | Some s ->
    Alcotest.(check int) "cold: no tile-cache hit" 0
      s.Sn_substrate.Extractor.cache_hits;
    let it = s.Sn_substrate.Extractor.cg_iterations_total in
    Alcotest.(check bool)
      (Printf.sprintf "%d CG iterations <= 70" it)
      true (it > 0 && it <= 70)

let test_sec3_gmb_gds_ranges () =
  let r = Lazy.force sec3 in
  let lo_gmb, hi_gmb = r.E.gmb_range_ms in
  let lo_gds, hi_gds = r.E.gds_range_ms in
  (* paper: gmb 10-38 mS, gds 2.8-22 mS *)
  check_band "gmb min [mS]" 6.0 16.0 lo_gmb;
  check_band "gmb max [mS]" 28.0 55.0 hi_gmb;
  check_band "gds min [mS]" 1.5 4.5 lo_gds;
  check_band "gds max [mS]" 15.0 32.0 hi_gds

let test_sec3_f3db_crossover () =
  let r = Lazy.force sec3 in
  (* paper: junction-cap path overtakes the back-gate path between
     5 and 19 GHz over the bias range *)
  check_band "f3db low" 3.0 8.0 r.E.f3db_min_ghz;
  check_band "f3db high" 14.0 30.0 r.E.f3db_max_ghz

(* ------------------------------------------------------------------ *)
(* Figure 7 *)

let test_fig7_spur_positions () =
  let r = Lazy.force fig7 in
  (* spurs must exist at fc +- fn, well below carrier, model and DFT
     measurement in agreement *)
  Alcotest.(check bool) "upper spur below carrier" true
    (r.E.model_upper_dbm < r.E.carrier_dbm -. 20.0);
  Alcotest.(check bool) "model vs measured upper" true
    (Float.abs (r.E.model_upper_dbm -. r.E.measured_upper_dbm) <= 2.0);
  Alcotest.(check bool) "model vs measured lower" true
    (Float.abs (r.E.model_lower_dbm -. r.E.measured_lower_dbm) <= 2.0)

let test_fig7_carrier_card () =
  let r = Lazy.force fig7 in
  check_band "carrier GHz" 2.5 3.7 (r.E.carrier_freq /. 1.0e9)

let test_fig7_spectrum_has_three_lines () =
  let r = Lazy.force fig7 in
  (* carrier + two spurs must stick out of the floor *)
  let strong =
    List.filter (fun (_, dbm) -> dbm > r.E.model_upper_dbm -. 15.0) r.E.spectrum
  in
  (* group by proximity: at least three distinct regions *)
  let offsets = List.map fst strong in
  let near x = List.exists (fun o -> Float.abs (o -. x) < 2.0e6) offsets in
  Alcotest.(check bool) "carrier line" true (near 0.0);
  Alcotest.(check bool) "upper spur line" true (near r.E.f_noise);
  Alcotest.(check bool) "lower spur line" true (near (-.r.E.f_noise))

(* ------------------------------------------------------------------ *)
(* Figure 8 *)

let test_fig8_slope () =
  let families = Lazy.force fig8 in
  (* paper: spur power linear in log f (resistive coupling followed by
     FM, -20 dB/decade) *)
  List.iter
    (fun (f : E.fig8_family) ->
      check_band
        (Printf.sprintf "slope at vtune %.2f" f.E.vtune)
        (-22.0) (-17.0) f.E.slope_db_per_decade)
    families

let test_fig8_model_vs_behavioral () =
  let families = Lazy.force fig8 in
  (* paper: simulation matches measurement within 2 dB; our analytic
     model must match the synthesized-waveform DFT within the same *)
  List.iter
    (fun (f : E.fig8_family) ->
      Alcotest.(check bool)
        (Printf.sprintf "vtune %.2f: max err %.2f <= 2 dB" f.E.vtune
           f.E.max_model_vs_behavioral_db)
        true
        (f.E.max_model_vs_behavioral_db <= 2.0))
    families

let test_fig8_left_right_nearly_equal () =
  let families = Lazy.force fig8 in
  (* paper: small difference between left and right spur (negligible
     AM): close but the families need not be identical *)
  List.iter
    (fun (f : E.fig8_family) ->
      List.iter
        (fun (p : E.fig8_point) ->
          Alcotest.(check bool) "spur asymmetry < 3 dB" true
            (Float.abs (p.E.upper_dbm -. p.E.lower_dbm) < 3.0))
        f.E.points)
    families

let test_fig8_vtune_families_distinct () =
  let families = Lazy.force fig8 in
  match families with
  | a :: b :: _ ->
    Alcotest.(check bool) "carriers differ with vtune" true
      (Float.abs (a.E.carrier_ghz -. b.E.carrier_ghz) > 0.05)
  | _ -> Alcotest.fail "expected several vtune families"

(* ------------------------------------------------------------------ *)
(* Figure 9 *)

let find_entry r label =
  List.find (fun (e : E.fig9_entry) -> e.E.label = label) r.E.entries

let test_fig9_ground_dominates () =
  let r = Lazy.force fig9 in
  (* paper: the ground interconnect is the dominant path, back-gate
     about 20 dB lower *)
  check_band "ground - backgate gap [dB]" 12.0 28.0
    r.E.ground_minus_backgate_db

let test_fig9_resistive_paths_slope () =
  let r = Lazy.force fig9 in
  let ground = find_entry r "ground interconnect" in
  let backgate = find_entry r "nmos back-gate" in
  check_band "ground slope" (-22.0) (-18.0) ground.E.slope_db_per_decade;
  check_band "backgate slope" (-22.0) (-18.0) backgate.E.slope_db_per_decade

let test_fig9_inductor_flat () =
  let r = Lazy.force fig9 in
  (* paper: capacitive coupling followed by FM - constant with
     frequency *)
  Alcotest.(check bool)
    (Printf.sprintf "inductor flatness %.2f dB < 2 dB" r.E.inductor_flatness_db)
    true
    (r.E.inductor_flatness_db < 2.0)

let test_fig9_wells_below_inductor () =
  let r = Lazy.force fig9 in
  (* paper: PMOS and varactor (both in n-wells) are less important
     than the inductor *)
  let at_10mhz (e : E.fig9_entry) =
    Sn_numerics.Sweep.interp1
      (Array.of_list (List.map fst e.E.spur_dbm_by_freq))
      (Array.of_list (List.map snd e.E.spur_dbm_by_freq))
      10.0e6
  in
  let ind = at_10mhz (find_entry r "inductor") in
  let pmos = at_10mhz (find_entry r "pmos n-well") in
  let var = at_10mhz (find_entry r "varactor n-well") in
  Alcotest.(check bool) "pmos below inductor" true (pmos < ind);
  Alcotest.(check bool) "varactor below inductor" true (var < ind)

(* ------------------------------------------------------------------ *)
(* Figure 10 *)

let test_fig10_improvement () =
  let r = Lazy.force fig10 in
  (* paper: 4.5 dB predicted improvement (6 dB ideal bound) *)
  check_band "mean improvement [dB]" 3.0 6.0 r.E.mean_improvement_db

let test_fig10_resistance_halved () =
  let r = Lazy.force fig10 in
  Alcotest.(check (float 0.05))
    "wire R halves"
    (r.E.wire_ohms_normal /. 2.0)
    r.E.wire_ohms_widened

let test_fig10_improvement_below_ideal () =
  let r = Lazy.force fig10 in
  Alcotest.(check bool) "below the 6 dB ideal bound" true
    (r.E.mean_improvement_db < 6.02)

(* ------------------------------------------------------------------ *)
(* VCO card *)

let test_vco_card () =
  let r = Lazy.force card in
  check_band "carrier [GHz]" 2.5 3.7 r.E.carrier_ghz;
  check_band "phase noise [dBc/Hz]" (-110.0) (-90.0) r.E.phase_noise_100k_dbc;
  Alcotest.(check (float 1e-9)) "core current" 5.0 r.E.core_current_ma;
  Alcotest.(check (float 1e-9)) "supply" 1.8 r.E.supply_v;
  let lo, hi = r.E.tuning_range_ghz in
  Alcotest.(check bool) "tuning range spans some band" true (hi -. lo > 0.2)

(* ------------------------------------------------------------------ *)
(* merge mechanics *)

let test_merge_well_net_naming () =
  (* the net each well port's junction capacitor bridges to *)
  let module Port = Sn_substrate.Port in
  let well name x =
    Port.v ~name ~kind:Port.Well [ Sn_geometry.Rect.make x 0.0 (x +. 1.0) 1.0 ]
  in
  let m =
    Sn_substrate.Macromodel.make
      ~ports:[| well "nwell:vdd_local" 0.0; well "gnd" 2.0 |]
      ~conductance:
        (Test_numerics.mat_of_rows [| [| 1e-3; -1e-3 |]; [| -1e-3; 1e-3 |] |])
      ~well_capacitance:[ ("nwell:vdd_local", 1e-15); ("gnd", 1e-15) ]
  in
  let bridged port =
    List.find_map
      (function
        | Sn_circuit.Element.Capacitor { n1; n2; _ } when n1 = port -> Some n2
        | _ -> None)
      (Merge.of_macromodel m)
  in
  Alcotest.(check (option string)) "strips prefix" (Some "vdd_local")
    (bridged "nwell:vdd_local");
  Alcotest.(check (option string)) "plain name unchanged" (Some "gnd")
    (bridged "gnd")

let test_merge_macromodel_elements () =
  let module Port = Sn_substrate.Port in
  let module Mac = Sn_substrate.Macromodel in
  let module G = Sn_geometry in
  let ports =
    [| Port.v ~name:"a" ~kind:Port.Resistive [ G.Rect.make 0.0 0.0 1.0 1.0 ];
       Port.v ~name:"nwell:vdd" ~kind:Port.Well [ G.Rect.make 2.0 2.0 3.0 3.0 ] |]
  in
  let g = Test_numerics.mat_of_rows [| [| 1e-3; -1e-3 |]; [| -1e-3; 1e-3 |] |] in
  let m =
    Mac.make ~ports ~conductance:g ~well_capacitance:[ ("nwell:vdd", 50e-15) ]
  in
  let elements = Merge.of_macromodel m in
  Alcotest.(check int) "1 R + 1 C" 2 (List.length elements);
  let has_cap =
    List.exists
      (function
        | Sn_circuit.Element.Capacitor { n1 = "nwell:vdd"; n2 = "vdd"; _ } ->
          true
        | _ -> false)
      elements
  in
  Alcotest.(check bool) "well cap bridges port to net" true has_cap

let test_ablation_no_interconnect_resistance () =
  (* the headline claim: ignoring interconnect R (the classical flow)
     underestimates the coupling by 5.4 dB; band 3.5-9.5 dB, the
     R-factor band 1.5-3.0x in dB *)
  let r = Lazy.force fig3 in
  check_band "classical-flow underestimate (dB)" 3.5 9.5
    (20.0 *. log10 (r.E.divider /. r.E.divider_no_r))

let test_ablation_grid_resolution () =
  (* with port-edge snapping every grid from 32^2 to 80^2 divides
     within 12% of the 48^2 default (measured 1/509 .. 1/566) *)
  let rows = (Lazy.force ablations).E.grid_resolution in
  Alcotest.(check int) "four grids" 4 (List.length rows);
  let ratio (g : E.grid_ablation) = 1.0 /. g.E.grid_divider in
  let default =
    List.find
      (fun (g : E.grid_ablation) -> g.E.grid = Flow.default_options.Flow.grid)
      rows
  in
  List.iter
    (fun g ->
      check_band
        (Printf.sprintf "%dx%d divider 1/x" g.E.grid.Sn_substrate.Grid.nx
           g.E.grid.Sn_substrate.Grid.ny)
        (0.88 *. ratio default) (1.12 *. ratio default) (ratio g))
    rows

let test_ablation_backside () =
  (* 500 um of 20 ohm cm bulk lies between the backside and the 1 um
     p+ surface layer the noise travels in: grounding the backside
     buys 0.6 dB (band 0.2-2 dB) *)
  let a = Lazy.force ablations in
  check_band "backside gain (dB)" 0.2 2.0
    (a.E.backside_open_db -. a.E.backside_grounded_db)

(* ------------------------------------------------------------------ *)
(* aggressor *)

let test_aggressor_experiment () =
  let r = E.aggressor_comb () in
  Alcotest.(check int) "8 harmonics" 8 (List.length r.E.lines);
  (match r.E.lines with
   | first :: rest ->
     List.iter
       (fun (l : Sn_rf.Aggressor.comb_line) ->
         Alcotest.(check bool) "fundamental dominates" true
           (l.Sn_rf.Aggressor.upper_dbm
            <= first.Sn_rf.Aggressor.upper_dbm +. 0.1))
       rest
   | [] -> Alcotest.fail "empty comb");
  Alcotest.(check bool)
    (Printf.sprintf "total %.1f dBm plausible" r.E.total_dbm)
    true
    (r.E.total_dbm > -120.0 && r.E.total_dbm < -40.0)

(* ------------------------------------------------------------------ *)
(* corners *)

let test_corner_apply_scales () =
  let module T = Sn_tech.Tech in
  let c = { Snoise.Corners.name = "x"; bulk_resistivity = 2.0;
            sheet_resistance = 3.0; contact_resistance = 4.0;
            well_capacitance = 5.0 } in
  let t = Snoise.Corners.apply c T.imec018 in
  let m1 = T.metal t 1 and m1n = T.metal T.imec018 1 in
  Alcotest.(check (float 1e-12)) "sheet x3"
    (3.0 *. m1n.T.sheet_resistance) m1.T.sheet_resistance;
  (match (t.T.substrate.T.layers, T.imec018.T.substrate.T.layers) with
   | l :: _, ln :: _ ->
     Alcotest.(check (float 1e-12)) "rho x2"
       (2.0 *. ln.T.resistivity) l.T.resistivity
   | _ -> Alcotest.fail "profile empty");
  Alcotest.(check (float 1e-20)) "contact x4"
    (4.0 *. T.imec018.T.substrate.T.contact_resistance)
    t.T.substrate.T.contact_resistance;
  Alcotest.(check bool) "scaled card still valid" true
    (Result.is_ok (T.validate t))

let test_corner_resistive_worst_dominates () =
  (* the VCO spur moves 4.3 dB across the five corners (band 3-6 dB)
     and the resistive-worst corner is the highest, by >= 1 dB over
     nominal: the coupling is resistive *)
  let results = (Lazy.force ablations).E.corners in
  Alcotest.(check int) "five corners"
    (List.length Snoise.Corners.corners_3sigma)
    (List.length results);
  let spur name =
    (List.find
       (fun (r : Snoise.Corners.vco_corner_result) ->
         r.Snoise.Corners.corner.Snoise.Corners.name = name)
       results)
      .Snoise.Corners.spur_at_10mhz_dbm
  in
  List.iter
    (fun (r : Snoise.Corners.vco_corner_result) ->
      Alcotest.(check bool)
        (Printf.sprintf "res-worst %.1f >= %s %.1f dBm" (spur "res-worst")
           r.Snoise.Corners.corner.Snoise.Corners.name
           r.Snoise.Corners.spur_at_10mhz_dbm)
        true
        (spur "res-worst" >= r.Snoise.Corners.spur_at_10mhz_dbm))
    results;
  Alcotest.(check bool)
    (Printf.sprintf "res-worst %.1f > nominal %.1f + 1 dB" (spur "res-worst")
       (spur "nominal"))
    true
    (spur "res-worst" > spur "nominal" +. 1.0);
  check_band "corner spread (dB)" 3.0 6.0 (Snoise.Corners.spread_db results)

(* ------------------------------------------------------------------ *)
(* the merged deck through the SPICE writer and reader *)

(* an element's card letter, nodes and every number it carries *)
let card_values (e : Sn_circuit.Element.t) =
  let module El = Sn_circuit.Element in
  let module W = Sn_circuit.Waveform in
  let wave = function
    | W.Dc v -> [ v ]
    | W.Sin { offset; amplitude; freq; phase } ->
      [ offset; amplitude; freq; phase ]
    | W.Pulse { v1; v2; delay; rise; fall; width; period } ->
      [ v1; v2; delay; rise; fall; width; period ]
    | W.Pwl points -> List.concat_map (fun (t, v) -> [ t; v ]) points
  in
  let mos (m : Sn_circuit.Mos_model.t) =
    Sn_circuit.Mos_model.
      [ m.vt0; m.kp; m.gamma; m.phi; m.lambda; m.cdb; m.csb; m.cgs; m.cgd ]
  in
  let var (m : Sn_circuit.Varactor_model.t) =
    Sn_circuit.Varactor_model.[ m.cmin; m.cmax; m.v0; m.vslope ]
  in
  let kind, values =
    match e with
    | El.Resistor { ohms; _ } -> ('r', [ ohms ])
    | El.Capacitor { farads; _ } -> ('c', [ farads ])
    | El.Inductor { henries; _ } -> ('l', [ henries ])
    | El.Vsource { wave = w; ac_mag; _ } -> ('v', ac_mag :: wave w)
    | El.Isource { wave = w; ac_mag; _ } -> ('i', ac_mag :: wave w)
    | El.Vccs { gm; _ } -> ('g', [ gm ])
    | El.Vcvs { gain; _ } -> ('e', [ gain ])
    | El.Mosfet { model; w; l; mult; _ } ->
      ('m', (float_of_int mult :: w :: l :: mos model))
    | El.Varactor { model; mult; _ } ->
      ('y', float_of_int mult :: var model)
  in
  (kind, El.nodes e, List.map Int64.bits_of_float values)

let test_merged_deck_roundtrip () =
  let options =
    {
      Flow.default_options with
      Flow.grid = { Sn_substrate.Grid.default_config with nx = 12; ny = 12 };
    }
  in
  let nl =
    Flow.vco_merged
      (Flow.build_vco ~options Sn_testchip.Vco_chip.default ~vtune:0.45)
  in
  let nl' = Sn_circuit.Spice.of_string (Sn_circuit.Spice.to_string nl) in
  let cards n = List.map card_values (Sn_circuit.Netlist.elements n) in
  Alcotest.(check int) "element count"
    (Sn_circuit.Netlist.element_count nl)
    (Sn_circuit.Netlist.element_count nl');
  List.iteri
    (fun k (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d: same kind, nodes and value bits" k)
        true (a = b))
    (List.combine (cards nl) (cards nl'));
  let report = Sn_analysis.Analyzer.analyze nl' in
  Alcotest.(check (list string)) "re-parsed deck lints error-free" []
    (List.map
       (fun (d : Sn_analysis.Rule.diagnostic) -> d.Sn_analysis.Rule.code)
       (Sn_analysis.Analyzer.errors report))

(* The transfer accessor answers the swept frequencies only: an
   off-grid query is refused with the frequency it asked for, never
   interpolated or clamped to a neighbour. *)
let test_transfers_only_swept () =
  let options =
    {
      Flow.default_options with
      Flow.grid = { Sn_substrate.Grid.default_config with nx = 12; ny = 12 };
    }
  in
  let flow = Flow.build_vco ~options Sn_testchip.Vco_chip.default ~vtune:0.0 in
  let h = Flow.vco_transfers flow ~f_noise:[| 1.0e6; 2.0e6 |] in
  let node = List.assoc Sn_rf.Tank.Ground Sn_testchip.Vco_chip.sensitive_nodes in
  Alcotest.(check bool) "swept point answered" true
    (Complex.norm (h 2.0e6 node) > 0.0);
  match h 1.5e6 node with
  | _ -> Alcotest.fail "off-grid query answered"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "names the frequency: %s" msg)
      true
      (Test_circuit.contains_sub msg "1.5e+06 Hz")

(* ------------------------------------------------------------------ *)
(* the Fig. 2 pipeline on generated structures *)

module Tc = Sn_testchip
module L = Sn_layout
module G = Sn_geometry
module El = Sn_circuit.Element

let small_grid =
  { Sn_substrate.Grid.nx = 16; ny = 16; z_per_layer = Some [ 1; 2; 2; 1 ] }

(* A small structure around the origin: a guard ring ["ring"], a
   bulk probe ["backgate:victim"] in its hole, an injection contact
   ["inj"] to its right, 0-2 grounded taps below it, and a metal-1
   ground wire of random width from the ring to a pad ["pad"] whose
   probe ties it to "0".  The RC victim hangs off the ring (the
   ground-local node): a resistor to ["victim"], a capacitor from there
   to the bulk probe.  The pad touches only the wire and its probe. *)
let structure_gen : (Tc.Structure.t * Tc.Structure.deck) QCheck.Gen.t =
 fun st ->
  let u lo hi = lo +. Random.State.float st (hi -. lo) in
  let inner = u 30.0 80.0 and strip = u 4.0 12.0 in
  let edge = (inner /. 2.0) +. strip in
  let length = u 50.0 250.0 in
  let contact net = L.Shape.rect ~layer:L.Layer.Substrate_contact ~net in
  let square x y size =
    G.Rect.of_center (G.Point.v x y) ~width:size ~height:size
  in
  let taps =
    List.init (Random.State.int st 3) (fun k ->
        let net = Printf.sprintf "tap%d" k in
        ( contact net
            (square (-50.0 +. (60.0 *. float_of_int k) +. u 0.0 20.0)
               (-.edge -. u 15.0 60.0) (u 8.0 16.0)),
          El.Resistor
            { name = "r" ^ net; n1 = net; n2 = "0"; ohms = u 1.0 1e3 } ))
  in
  let shapes =
    [ contact "inj" (square (edge +. u 10.0 80.0) 0.0 (u 8.0 20.0));
      L.Shape.rect ~layer:(L.Layer.Backgate_probe "victim") ~net:"-"
        (square 0.0 0.0 (inner /. 3.0));
      L.Shape.path ~layer:(L.Layer.Metal 1) ~net:"gnd" ~from_terminal:"ring"
        ~to_terminal:"pad"
        (G.Path.make ~width:(u 0.5 6.0)
           [ G.Point.v (-.edge) 0.0; G.Point.v (-.edge -. length) 0.0 ]);
      L.Shape.rect ~layer:L.Layer.Pad ~net:"gnd"
        (square (-.edge -. length) 0.0 60.0) ]
    @ Tc.Ring.contacts ~net:"ring" ~center:G.Point.zero ~inner ~strip
    @ List.map fst taps
  in
  let layout =
    L.Layout.create ~top:"generated" [ L.Cell.make ~name:"generated" shapes ]
  in
  ( { Tc.Structure.layout; ground_net = "gnd"; substrate_node = "ring";
      ground_wire = ("ring", "pad"); inject = "inj" },
    { Tc.Structure.title = "generated structure";
      elements =
        Tc.Structure.injection "inj"
        @ [ El.Resistor
              { name = "rprobe"; n1 = "pad"; n2 = "0"; ohms = u 0.01 2.0 };
            El.Resistor
              { name = "rvictim"; n1 = "ring"; n2 = "victim"; ohms = u 10.0 1e4 };
            El.Capacitor
              { name = "cvictim"; n1 = "victim"; n2 = "backgate:victim";
                farads = u 1e-14 1e-12 } ]
        @ List.map snd taps;
      keep = [ "inj"; "ring" ] } )

let print_structure ((s : Tc.Structure.t), (d : Tc.Structure.deck)) =
  L.Layout_io.to_string s.Tc.Structure.layout
  ^ Sn_circuit.Spice.to_string
      (Sn_circuit.Netlist.create d.Tc.Structure.elements)

(* Widening the ground wire never raises the ring's share of the
   injected voltage.  The pad touches only the wire and its probe, so
   the ring reaches "0" through one series branch whose conductance
   widening raises; by Rayleigh monotonicity the ring's transfer from
   the injection node cannot rise.  Evaluated at 1 kHz, where every
   capacitance (at most ~1 pF, under 7 nS) is negligible beside the
   resistive paths, with a relative tolerance of 1e-9 for rounding. *)
let prop_widening_never_raises_ground_bounce =
  QCheck.Test.make ~count:20
    ~name:"generated structures: widening the ground never raises v(ring)/v(inj)"
    QCheck.(
      pair (make ~print:print_structure structure_gen) (float_range 1.1 4.0))
    (fun ((structure, deck), factor) ->
      let bounce widen_ground =
        let options =
          { Flow.default_options with Flow.grid = small_grid; widen_ground }
        in
        let nl, _ = Flow.merge (Flow.extract ~options structure) deck in
        let s = Sn_engine.Ac.solve nl ~freq:1.0e3 in
        Complex.norm (Sn_engine.Ac.voltage s "ring")
        /. Complex.norm (Sn_engine.Ac.voltage s "inj")
      in
      let base = bounce None and widened = bounce (Some factor) in
      widened <= base *. (1.0 +. 1e-9)
      || QCheck.Test.fail_reportf "x%g: %.12g -> %.12g" factor base widened)

(* Each distinct lint warning is logged once per built flow, however
   many bias points re-merge its deck; a second build logs it again,
   and a bare [lint_gate] logs every time.  A 0.1 micro-ohm probe
   warns extreme-value on both pad probes. *)
let test_lint_warns_once_per_flow () =
  let logged = ref [] in
  let reporter =
    { Logs.report =
        (fun src level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun s ->
                  if level = Logs.Warning && Logs.Src.name src = "sn.flow" then
                    logged := s :: !logged;
                  over ();
                  k ())
                fmt)) }
  in
  let saved_reporter = Logs.reporter () and saved_level = Logs.level () in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Warning);
  Fun.protect ~finally:(fun () ->
      Logs.set_reporter saved_reporter;
      Logs.set_level saved_level)
  @@ fun () ->
  let module Ns = Tc.Nmos_structure in
  let params = { Ns.default with Ns.probe_resistance = 1e-7 } in
  let options = { Flow.default_options with Flow.grid = small_grid } in
  let warnings () =
    List.length
      (List.filter
         (fun s -> Test_circuit.contains_sub s "extreme-value")
         !logged)
  in
  let sweep () =
    let flow = Flow.build_nmos ~options params in
    let divider = Flow.nmos_divider flow in
    List.iter
      (fun (vgs, vds) ->
        ignore (Flow.nmos_transfer flow ~divider ~vgs ~vds ~freq:5.0e6))
      Ns.bias_sweep
  in
  sweep ();
  Alcotest.(check int) "5-point sweep: each probe warns once" 2 (warnings ());
  sweep ();
  Alcotest.(check int) "second build: logged again" 4 (warnings ());
  let unlinted = { options with Flow.lint = false } in
  let nl, _ =
    Flow.merge
      (Flow.extract ~options:unlinted (Ns.structure params))
      (Ns.passive params)
  in
  Alcotest.(check int) "lint off: nothing logged" 4 (warnings ());
  Flow.lint_gate nl;
  Flow.lint_gate nl;
  Alcotest.(check int) "bare lint_gate: every time" 8 (warnings ())

let suites =
  [
    ( "flow.fig3",
      [
        Alcotest.test_case "divider ~ 1/652" `Slow test_fig3_divider;
        Alcotest.test_case "interconnect R factor ~ 2" `Slow test_fig3_r_factor;
        Alcotest.test_case "transfer in -45..-52 band" `Slow
          test_fig3_transfer_band;
        Alcotest.test_case "hand calc within 1 dB" `Slow
          test_fig3_hand_calculation_agreement;
        Alcotest.test_case "transfer monotone in bias" `Slow
          test_fig3_transfer_decreases_with_bias;
        Alcotest.test_case "cold extraction CG budget" `Quick
          test_fig3_cold_extraction_cg_budget;
        Alcotest.test_case "gmb / gds ranges" `Slow test_sec3_gmb_gds_ranges;
        Alcotest.test_case "f3dB crossover band" `Slow test_sec3_f3db_crossover;
        Alcotest.test_case "classical-flow ablation" `Slow
          test_ablation_no_interconnect_resistance;
      ] );
    ( "flow.fig7",
      [
        Alcotest.test_case "spur positions and levels" `Slow
          test_fig7_spur_positions;
        Alcotest.test_case "carrier near 3 GHz" `Slow test_fig7_carrier_card;
        Alcotest.test_case "three spectral lines" `Slow
          test_fig7_spectrum_has_three_lines;
      ] );
    ( "flow.fig8",
      [
        Alcotest.test_case "-20 dB/dec slope" `Slow test_fig8_slope;
        Alcotest.test_case "model vs DFT within 2 dB" `Slow
          test_fig8_model_vs_behavioral;
        Alcotest.test_case "left/right nearly equal" `Slow
          test_fig8_left_right_nearly_equal;
        Alcotest.test_case "vtune families distinct" `Slow
          test_fig8_vtune_families_distinct;
      ] );
    ( "flow.fig9",
      [
        Alcotest.test_case "ground dominates by ~20 dB" `Slow
          test_fig9_ground_dominates;
        Alcotest.test_case "resistive paths at -20 dB/dec" `Slow
          test_fig9_resistive_paths_slope;
        Alcotest.test_case "inductor flat" `Slow test_fig9_inductor_flat;
        Alcotest.test_case "wells below inductor" `Slow
          test_fig9_wells_below_inductor;
      ] );
    ( "flow.fig10",
      [
        Alcotest.test_case "~4.5 dB improvement" `Slow test_fig10_improvement;
        Alcotest.test_case "wire resistance halved" `Slow
          test_fig10_resistance_halved;
        Alcotest.test_case "below ideal 6 dB" `Slow
          test_fig10_improvement_below_ideal;
      ] );
    ( "flow.card",
      [ Alcotest.test_case "VCO design card" `Slow test_vco_card ] );
    ( "flow.aggressor",
      [ Alcotest.test_case "spur comb experiment" `Slow
          test_aggressor_experiment ] );
    ( "flow.corners",
      [
        Alcotest.test_case "corner scaling" `Quick test_corner_apply_scales;
        Alcotest.test_case "resistive-worst dominates" `Slow
          test_corner_resistive_worst_dominates;
      ] );
    ( "flow.ablations",
      [
        Alcotest.test_case "grid resolution" `Slow test_ablation_grid_resolution;
        Alcotest.test_case "backside metallization" `Slow test_ablation_backside;
      ] );
    ( "flow.merge",
      [
        Alcotest.test_case "well net naming" `Quick test_merge_well_net_naming;
        Alcotest.test_case "macromodel to elements" `Quick
          test_merge_macromodel_elements;
        Alcotest.test_case "merged deck round-trips through SPICE" `Quick
          test_merged_deck_roundtrip;
      ] );
    ( "flow.pipeline",
      [
        QCheck_alcotest.to_alcotest prop_widening_never_raises_ground_bounce;
        Alcotest.test_case "lint warnings once per flow" `Quick
          test_lint_warns_once_per_flow;
        Alcotest.test_case "transfers answer swept points only" `Quick
          test_transfers_only_swept;
      ] );
  ]
