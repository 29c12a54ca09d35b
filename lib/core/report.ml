module E = Experiments
module U = Sn_numerics.Units

let hr fmt = Format.fprintf fmt "%s@," (String.make 72 '-')

let fig3 fmt (r : E.fig3) =
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt
    "Figure 3 - substrate to NMOS output transfer (measured leg = AC sim)@,";
  hr fmt;
  Format.fprintf fmt
    "SUB -> back-gate division: 1/%.0f (%.1f dB)   [paper: 1/652]@,"
    (1.0 /. r.E.divider)
    (U.db_of_ratio r.E.divider);
  Format.fprintf fmt
    "same with ideal (R = 0) interconnect: 1/%.0f  -> R factor %.2fx   [paper: ~2x]@,"
    (1.0 /. r.E.divider_no_r)
    (r.E.divider /. r.E.divider_no_r);
  Format.fprintf fmt "extracted MOS-GR ground wire: %.2f ohm@,"
    r.E.ground_wire_ohms;
  Format.fprintf fmt "%6s %10s %10s %12s %12s %8s@," "vgs" "gmb[mS]"
    "gds[mS]" "sim[dB]" "hand[dB]" "err[dB]";
  List.iter
    (fun (p : Flow.nmos_point) ->
      Format.fprintf fmt "%6.2f %10.1f %10.1f %12.1f %12.1f %8.2f@,"
        p.Flow.vgs
        (1.0e3 *. p.Flow.gmb_total)
        (1.0e3 *. p.Flow.gds_total)
        p.Flow.transfer_sim_db p.Flow.transfer_hand_db
        (Float.abs (p.Flow.transfer_sim_db -. p.Flow.transfer_hand_db)))
    r.E.points;
  Format.fprintf fmt
    "worst sim-vs-hand-calculation error: %.2f dB   [paper: <= 1 dB]@,"
    r.E.max_hand_error_db;
  Format.fprintf fmt "@]"

let sec3 fmt (r : E.sec3_numbers) =
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt "Section 3 numbers@,";
  hr fmt;
  Format.fprintf fmt "voltage division SUB -> back-gate: 1/%.0f   [paper: 1/652]@,"
    r.E.division_ratio;
  Format.fprintf fmt "interconnect-R factor on v_bs: %.2f   [paper: ~2]@,"
    r.E.r_factor;
  let lo_gmb, hi_gmb = r.E.gmb_range_ms in
  let lo_gds, hi_gds = r.E.gds_range_ms in
  Format.fprintf fmt "gmb range: %.1f - %.1f mS   [paper: 10 - 38 mS]@," lo_gmb
    hi_gmb;
  Format.fprintf fmt "gds range: %.1f - %.1f mS   [paper: 2.8 - 22 mS]@,"
    lo_gds hi_gds;
  Format.fprintf fmt
    "junction-cap crossover f3dB: %.1f - %.1f GHz   [paper: 5 - 19 GHz]@,"
    r.E.f3db_min_ghz r.E.f3db_max_ghz;
  Format.fprintf fmt "@]"

let spectrum_ascii ?(width = 64) ?(height = 16) fmt points =
  match points with
  | [] -> Format.fprintf fmt "(empty spectrum)@,"
  | _ ->
    let dbm_values = List.map snd points in
    let max_dbm = List.fold_left Float.max (-300.0) dbm_values in
    let floor_dbm = max_dbm -. 80.0 in
    let offsets = List.map fst points in
    let min_off = List.fold_left Float.min Float.infinity offsets in
    let max_off = List.fold_left Float.max Float.neg_infinity offsets in
    let cols = Array.make width floor_dbm in
    List.iter
      (fun (off, dbm) ->
        let k =
          int_of_float
            (Float.round
               ((off -. min_off) /. (max_off -. min_off)
               *. float_of_int (width - 1)))
        in
        if k >= 0 && k < width then cols.(k) <- Float.max cols.(k) dbm)
      points;
    Format.fprintf fmt "@[<v>";
    for row = 0 to height - 1 do
      let level =
        max_dbm -. (float_of_int row /. float_of_int (height - 1) *. 80.0)
      in
      Format.fprintf fmt "%8.0f |" level;
      Array.iter
        (fun c -> Format.fprintf fmt "%c" (if c >= level then '#' else ' '))
        cols;
      Format.fprintf fmt "@,"
    done;
    Format.fprintf fmt "%8s +%s@," "dBm" (String.make width '-');
    Format.fprintf fmt "%8s  %-10s%*s@," ""
      (Printf.sprintf "%+.0f MHz" (min_off /. 1.0e6))
      (width - 10)
      (Printf.sprintf "%+.0f MHz" (max_off /. 1.0e6));
    Format.fprintf fmt "@]"

let fig7 fmt (r : E.fig7) =
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt
    "Figure 7 - VCO output spectrum, %s tone at %s (offsets from carrier)@,"
    (Printf.sprintf "%.0f dBm" E.paper_noise_dbm)
    (U.eng ~unit:"Hz" r.E.f_noise);
  hr fmt;
  Format.fprintf fmt "carrier: %s at %.1f dBm@,"
    (U.eng ~unit:"Hz" r.E.carrier_freq)
    r.E.carrier_dbm;
  spectrum_ascii fmt r.E.spectrum;
  Format.fprintf fmt
    "spurs at fc+-fn: model %.1f / %.1f dBm, DFT-measured %.1f / %.1f dBm@,"
    r.E.model_lower_dbm r.E.model_upper_dbm r.E.measured_lower_dbm
    r.E.measured_upper_dbm;
  Format.fprintf fmt "@]"

let fig8 fmt (families : E.fig8_family list) =
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt
    "Figure 8 - total spur power at fc+-fn vs noise frequency@,";
  hr fmt;
  List.iter
    (fun (f : E.fig8_family) ->
      Format.fprintf fmt "Vtune = %.2f V (fc = %.2f GHz):@," f.E.vtune
        f.E.carrier_ghz;
      Format.fprintf fmt "  %12s %12s %12s %14s@," "f_noise" "upper[dBm]"
        "lower[dBm]" "DFT-check[dBm]";
      List.iter
        (fun (p : E.fig8_point) ->
          Format.fprintf fmt "  %12s %12.1f %12.1f %14.1f@,"
            (U.eng ~unit:"Hz" p.E.f_noise)
            p.E.upper_dbm p.E.lower_dbm p.E.behavioral_dbm)
        f.E.points;
      Format.fprintf fmt
        "  slope %.1f dB/dec [paper: -20, resistive coupling + FM]; \
         model-vs-DFT <= %.2f dB [paper: <= 2 dB]@,"
        f.E.slope_db_per_decade f.E.max_model_vs_behavioral_db)
    families;
  Format.fprintf fmt "@]"

let fig9 fmt (r : E.fig9) =
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt "Figure 9 - per-device contributions (Vtune = 0 V)@,";
  hr fmt;
  List.iter
    (fun (e : E.fig9_entry) ->
      Format.fprintf fmt "%-22s slope %6.1f dB/dec :" e.E.label
        e.E.slope_db_per_decade;
      List.iter
        (fun (fn, dbm) ->
          Format.fprintf fmt " %s:%.1f" (U.eng ~unit:"Hz" fn) dbm)
        e.E.spur_dbm_by_freq;
      Format.fprintf fmt "@,")
    r.E.entries;
  Format.fprintf fmt
    "ground-vs-backgate gap at 10 MHz: %.1f dB   [paper: ~20 dB]@,"
    r.E.ground_minus_backgate_db;
  Format.fprintf fmt
    "inductor curve flatness: %.2f dB   [paper: constant with frequency]@,"
    r.E.inductor_flatness_db;
  Format.fprintf fmt "@]"

let fig10 fmt (r : E.fig10) =
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt "Figure 10 - ground interconnect widened 2x@,";
  hr fmt;
  Format.fprintf fmt "extracted ground wire: %.2f ohm -> %.2f ohm@,"
    r.E.wire_ohms_normal r.E.wire_ohms_widened;
  Format.fprintf fmt "  %12s %14s %14s %10s@," "f_noise" "normal[dBm]"
    "widened[dBm]" "delta[dB]";
  List.iter
    (fun (fn, n, w) ->
      Format.fprintf fmt "  %12s %14.1f %14.1f %10.2f@,"
        (U.eng ~unit:"Hz" fn) n w (n -. w))
    r.E.points;
  Format.fprintf fmt
    "mean improvement: %.2f dB   [paper: 4.5 dB predicted, 6 dB ideal]@,"
    r.E.mean_improvement_db;
  Format.fprintf fmt "@]"

let vco_card fmt (r : E.vco_card) =
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt "Section 4 - VCO design card@,";
  hr fmt;
  Format.fprintf fmt "carrier: %.2f GHz   [paper: ~3 GHz]@," r.E.carrier_ghz;
  Format.fprintf fmt "tuning gain: %.0f MHz/V@," r.E.kvco_mhz_per_v;
  let lo, hi = r.E.tuning_range_ghz in
  Format.fprintf fmt "tuning range: %.2f - %.2f GHz@," lo hi;
  Format.fprintf fmt
    "phase noise at 100 kHz: %.1f dBc/Hz   [paper: -100 dBc/Hz]@,"
    r.E.phase_noise_100k_dbc;
  Format.fprintf fmt "core current: %.1f mA at %.1f V   [paper: 5 mA, 1.8 V]@,"
    r.E.core_current_ma r.E.supply_v;
  Format.fprintf fmt "@]"

let ablations fmt (r : E.ablations) =
  let module Grid = Sn_substrate.Grid in
  let module C = Corners in
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt "Ablations@,";
  hr fmt;
  Format.fprintf fmt "substrate grid resolution (NMOS SUB -> back-gate):@,";
  Format.fprintf fmt "%10s %16s@," "grid" "divider 1/x";
  List.iter
    (fun (g : E.grid_ablation) ->
      let c = g.E.grid in
      let nz =
        List.fold_left ( + ) 0 (Option.value ~default:[] c.Grid.z_per_layer)
      in
      Format.fprintf fmt "%10s %16.0f@,"
        (Printf.sprintf "%dx%dx%d" c.Grid.nx c.Grid.ny nz)
        (1.0 /. g.E.grid_divider))
    r.E.grid_resolution;
  Format.fprintf fmt "victim coupling, open backside    : %6.1f dB@,"
    r.E.backside_open_db;
  Format.fprintf fmt "victim coupling, grounded backside: %6.1f dB@,"
    r.E.backside_grounded_db;
  Format.fprintf fmt "-> backside metallization buys %.1f dB here@,"
    (r.E.backside_open_db -. r.E.backside_grounded_db);
  Format.fprintf fmt "process corners (VCO spur at fc + 10 MHz):@,";
  List.iter
    (fun (c : C.vco_corner_result) ->
      Format.fprintf fmt "%-12s %8.1f dBm@," c.C.corner.C.name
        c.C.spur_at_10mhz_dbm)
    r.E.corners;
  Format.fprintf fmt "-> spread %.1f dB across corners@,"
    (C.spread_db r.E.corners);
  Format.fprintf fmt "@]"

let runtime fmt (r : E.runtime) =
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt "Section 6 runtime note@,";
  hr fmt;
  Format.fprintf fmt
    "extraction %.2f s, impact simulation %.3f s (%d grid cells)@,"
    r.E.extraction_seconds r.E.simulation_seconds r.E.grid_cells;
  (match r.E.extractor with
   | None -> ()
   | Some x ->
     let module X = Sn_substrate.Extractor in
     Format.fprintf fmt
       "extractor: assemble %.2f s, reduce %.2f s (setup %.2f s, solve %.2f \
        s), stitch %.2f s (%d tiles, %d interface nodes)@,"
       x.X.assemble_seconds x.X.reduce_seconds x.X.setup_seconds
       x.X.solve_seconds x.X.stitch_seconds x.X.tiles x.X.interface_nodes;
     Format.fprintf fmt
       "extractor: %d CG iterations (%d MG levels), cache %d hit%s / %d \
        miss%s, input key %s@,"
       x.X.cg_iterations_total x.X.mg_levels x.X.cache_hits
       (if x.X.cache_hits = 1 then "" else "s")
       x.X.cache_misses
       (if x.X.cache_misses = 1 then "" else "es")
       (if x.X.input_key_hit then "hit" else "miss"));
  Format.fprintf fmt "tile cache: %a@," Sn_substrate.Cache.pp_resolution
    r.E.tile_cache;
  (match r.E.reduction with
   | None -> ()
   | Some s ->
     Format.fprintf fmt
       "reduction: %d ports + %d internal -> rank %d (order %d, %.1f ms%s)@,"
       s.Reduced_model.ports s.Reduced_model.internal s.Reduced_model.rank
       s.Reduced_model.order
       (1e3 *. s.Reduced_model.build_seconds)
       (if Float.is_nan s.Reduced_model.est_error then ""
        else Printf.sprintf ", est. error %.1e" s.Reduced_model.est_error));
  Format.fprintf fmt
    "[paper: 20 min extraction + 15 min simulation on an HP-UX L2000]@,";
  Format.fprintf fmt "%a" Sn_engine.Pool.pp_stats r.E.pool;
  Format.fprintf fmt "@]"

let aggressor fmt (r : E.aggressor_comb) =
  let a = r.E.aggressor in
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt
    "Extension - digital aggressor spur comb (%s clock, %.0f mA spikes)@,"
    (U.eng ~unit:"Hz" a.Sn_rf.Aggressor.clock_freq)
    (1.0e3 *. a.Sn_rf.Aggressor.peak_current);
  hr fmt;
  Format.fprintf fmt "  %3s %12s %14s %12s %12s@," "k" "k*fclk"
    "injected[dBm]" "upper[dBm]" "lower[dBm]";
  List.iter
    (fun (l : Sn_rf.Aggressor.comb_line) ->
      Format.fprintf fmt "  %3d %12s %14.1f %12.1f %12.1f@,"
        l.Sn_rf.Aggressor.harmonic
        (U.eng ~unit:"Hz" l.Sn_rf.Aggressor.f_noise)
        l.Sn_rf.Aggressor.injected_dbm l.Sn_rf.Aggressor.upper_dbm
        l.Sn_rf.Aggressor.lower_dbm)
    r.E.lines;
  Format.fprintf fmt "total comb power: %.1f dBm@," r.E.total_dbm;
  Format.fprintf fmt "@]"

let lint fmt ~deck (r : Sn_analysis.Analyzer.report) =
  let module A = Sn_analysis in
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt "Lint - %s@," deck;
  hr fmt;
  (match r.A.Analyzer.diagnostics with
   | [] -> Format.fprintf fmt "clean@,"
   | ds ->
     List.iter (fun d -> Format.fprintf fmt "%a@," A.Rule.pp_diagnostic d) ds);
  let ne = List.length (A.Analyzer.errors r)
  and nw = List.length (A.Analyzer.warnings r) in
  Format.fprintf fmt "%d error%s, %d warning%s" ne
    (if ne = 1 then "" else "s")
    nw
    (if nw = 1 then "" else "s");
  if r.A.Analyzer.suppressed > 0 then
    Format.fprintf fmt " (%d suppressed)" r.A.Analyzer.suppressed;
  Format.fprintf fmt "@,@]"

let pencil_name = function
  | `Conductance -> "conductance"
  | `Capacitance -> "capacitance"

let verify fmt ~deck (p : Flow.preflight) =
  let module A = Sn_analysis in
  let r = p.Flow.pf_report in
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt "Verify - %s@," deck;
  hr fmt;
  List.iter
    (fun d -> Format.fprintf fmt "%a@," A.Rule.pp_diagnostic d)
    r.A.Analyzer.diagnostics;
  (match p.Flow.pf_spans with
   | [] ->
     Format.fprintf fmt
       "conditioning : every node row spans < %.0e@," A.Numeric.span_limit
   | s :: _ ->
     let hi_name, hi = s.A.Numeric.sp_hi and lo_name, lo = s.A.Numeric.sp_lo in
     Format.fprintf fmt
       "conditioning : worst span %.1e at node %s (%s %.3g S vs %s %.3g S, \
        ~%.0f digits)@,"
       s.A.Numeric.sp_ratio s.A.Numeric.sp_node hi_name hi lo_name lo
       s.A.Numeric.sp_digits);
  (match p.Flow.pf_stiffness with
   | None ->
     Format.fprintf fmt
       "stiffness    : no resistively tied capacitive pair@,"
   | Some st ->
     Format.fprintf fmt
       "stiffness    : tau %s (%s) .. %s (%s), ratio %.1e%s@,"
       (U.eng ~unit:"s" st.A.Numeric.st_fast_tau)
       st.A.Numeric.st_fast_node
       (U.eng ~unit:"s" st.A.Numeric.st_slow_tau)
       st.A.Numeric.st_slow_node st.A.Numeric.st_ratio
       (if st.A.Numeric.st_ratio > A.Numeric.stiffness_limit then
          Printf.sprintf "; suggest dt <= %s"
            (U.eng ~unit:"s" st.A.Numeric.st_dt)
        else ""));
  (match p.Flow.pf_pool with
   | [] -> Format.fprintf fmt "passivity    : R/C pool is passive@,"
   | ds ->
     List.iter
       (fun d ->
         Format.fprintf fmt
           "passivity    : indefinite %s pencil (pivot %.3g at node %s, \
            component of %d, %d negative branch%s)@,"
           (pencil_name d.A.Numeric.pd_pencil)
           d.A.Numeric.pd_defect d.A.Numeric.pd_node d.A.Numeric.pd_dim
           d.A.Numeric.pd_negative
           (if d.A.Numeric.pd_negative = 1 then "" else "es"))
       ds);
  Format.fprintf fmt "reduction    : %s@,"
    (match p.Flow.pf_reduction with
     | Flow.Not_reduced -> "not reduced"
     | Flow.Certified -> "pencil certified passive"
     | Flow.Refused -> "certificate REFUSED (indefinite reduced pencil)");
  let ne = List.length (A.Analyzer.errors r)
  and nw = List.length (A.Analyzer.warnings r) in
  Format.fprintf fmt "%d error%s, %d warning%s" ne
    (if ne = 1 then "" else "s")
    nw
    (if nw = 1 then "" else "s");
  if r.A.Analyzer.suppressed > 0 then
    Format.fprintf fmt " (%d suppressed)" r.A.Analyzer.suppressed;
  Format.fprintf fmt " -> %s@,"
    (if Flow.preflight_failing p then "REFUSED" else "verified");
  Format.fprintf fmt "@]"

let cache_verification fmt ~dir (v : Sn_substrate.Cache.verification) =
  let module SC = Sn_substrate.Cache in
  Format.fprintf fmt "@[<v>";
  hr fmt;
  Format.fprintf fmt "Verify - tile cache %s@," dir;
  hr fmt;
  if v.SC.vf_entries = [] then Format.fprintf fmt "no entries@,"
  else
    List.iter
      (fun (key, status) ->
        Format.fprintf fmt "%s  %s@," key
          (match status with
           | SC.Certified -> "certified"
           | SC.Recertified -> "recertified (no stored certificate)"
           | SC.Stale -> "stale format (treated as a miss)"
           | SC.Bad why -> "BAD: " ^ why))
      v.SC.vf_entries;
  Format.fprintf fmt
    "%d certified, %d recertified, %d stale, %d bad -> %s@,"
    v.SC.vf_certified v.SC.vf_recertified v.SC.vf_stale v.SC.vf_bad
    (if v.SC.vf_bad = 0 then "verified" else "REFUSED");
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* JSON documents of [snoise verify --json] and the service's verify
   verb *)

module J = Sn_json.Json
module Nu = Sn_analysis.Numeric

let count i = J.Num (float_of_int i)

let span_json (s : Nu.span) =
  let branch (element, siemens) =
    J.Obj [ ("element", J.Str element); ("siemens", J.Num siemens) ]
  in
  J.Obj
    [
      ("node", J.Str s.Nu.sp_node);
      ("ratio", J.Num s.Nu.sp_ratio);
      ("hi", branch s.Nu.sp_hi);
      ("lo", branch s.Nu.sp_lo);
      ("digits", J.Num s.Nu.sp_digits);
    ]

let stiffness_json (st : Nu.stiffness) =
  J.Obj
    [
      ("fast_node", J.Str st.Nu.st_fast_node);
      ("fast_tau_s", J.Num st.Nu.st_fast_tau);
      ("slow_node", J.Str st.Nu.st_slow_node);
      ("slow_tau_s", J.Num st.Nu.st_slow_tau);
      ("ratio", J.Num st.Nu.st_ratio);
      ("suggested_dt_s", J.Num st.Nu.st_dt);
      ("steps_to_cover", J.Num st.Nu.st_steps);
    ]

let pool_defect_json (d : Nu.pool_defect) =
  J.Obj
    [
      ("pencil", J.Str (pencil_name d.Nu.pd_pencil));
      ("node", J.Str d.Nu.pd_node);
      ("defect", J.Num d.Nu.pd_defect);
      ("tolerance", J.Num d.Nu.pd_tol);
      ("dim", count d.Nu.pd_dim);
      ("negative_branches", count d.Nu.pd_negative);
    ]

let verify_json ?deck (p : Flow.preflight) =
  J.Obj
    ([
       ("schema_version", count Sn_analysis.Analyzer.schema_version);
       ("mode", J.Str "deck");
     ]
    @ Option.fold ~none:[] ~some:(fun d -> [ ("deck", J.Str d) ]) deck
    @ [
        ("report", Sn_analysis.Analyzer.to_json p.Flow.pf_report);
        ("conditioning", J.Arr (List.map span_json p.Flow.pf_spans));
        ( "stiffness",
          Option.fold ~none:J.Null ~some:stiffness_json p.Flow.pf_stiffness );
        ("pool", J.Arr (List.map pool_defect_json p.Flow.pf_pool));
        ("reduction", J.Str (Flow.reduction_verdict_name p.Flow.pf_reduction));
        ("failing", J.Bool (Flow.preflight_failing p));
      ])

let cache_verification_json ~dir (v : Sn_substrate.Cache.verification) =
  let module SC = Sn_substrate.Cache in
  let entry (key, status) =
    J.Obj
      (("key", J.Str key)
       :: ("status", J.Str (SC.status_name status))
       :: (match status with SC.Bad why -> [ ("detail", J.Str why) ] | _ -> []))
  in
  J.Obj
    [
      ("schema_version", count Sn_analysis.Analyzer.schema_version);
      ("mode", J.Str "cache");
      ("dir", J.Str dir);
      ("entries", J.Arr (List.map entry v.SC.vf_entries));
      ("certified", count v.SC.vf_certified);
      ("recertified", count v.SC.vf_recertified);
      ("stale", count v.SC.vf_stale);
      ("bad", count v.SC.vf_bad);
      ("failing", J.Bool (v.SC.vf_bad > 0));
    ]
