module N = Sn_numerics
module U = N.Units
module Tc = Sn_testchip
module Impact = Sn_rf.Impact
module Tank = Sn_rf.Tank
module Behavioral = Sn_rf.Behavioral
module Pool = Sn_engine.Pool

let default_f_noise = N.Sweep.logspace 1.0e6 15.0e6 7

let paper_noise_dbm = Flow.paper_noise_dbm

(* Behavioral "measurement" leg: the oscillator of eq. (1) is
   synthesized at a scaled-down carrier (the spur amplitudes depend
   only on the modulation indices, not on the absolute carrier), then
   the spur is read back with a windowed single-bin DFT — the role the
   spectrum analyzer plays in the paper. *)
let scaled_carrier = 64.0e6
let behavioral_fs = 320.0e6
let behavioral_n = 65536

let behavioral_samples osc ~h ~f_noise =
  let a_noise = U.vpeak_of_dbm paper_noise_dbm in
  let beta, m_am = Impact.total_modulation osc ~h ~a_noise ~f_noise in
  Behavioral.synthesize ~carrier_freq:scaled_carrier
    ~amplitude:osc.Impact.amplitude
    ~tones:[ { Behavioral.f_noise; beta; m_am } ]
    ~fs:behavioral_fs ~n:behavioral_n

let measured_sideband samples ~f_noise side =
  Behavioral.measured_sideband_dbm samples ~fs:behavioral_fs
    ~carrier_freq:scaled_carrier ~f_noise side

(* ------------------------------------------------------------------ *)
(* Figure 3 / section 3 *)

type fig3 = {
  divider : float;
  divider_no_r : float;
  ground_wire_ohms : float;
  points : Flow.nmos_point list;
  max_hand_error_db : float;
}

let fig3 ?(options = Flow.default_options) () =
  let params = Tc.Nmos_structure.default in
  let flow = Flow.build_nmos ~options params in
  let flow_no_r =
    Flow.build_nmos
      ~options:{ options with Flow.interconnect_resistance = false }
      params
  in
  let divider = Flow.nmos_divider flow in
  let points =
    List.map
      (fun (vgs, vds) -> Flow.nmos_transfer flow ~divider ~vgs ~vds ~freq:5.0e6)
      Tc.Nmos_structure.bias_sweep
  in
  let max_err =
    List.fold_left
      (fun acc (p : Flow.nmos_point) ->
        Float.max acc
          (Float.abs (p.Flow.transfer_sim_db -. p.Flow.transfer_hand_db)))
      0.0 points
  in
  {
    divider;
    divider_no_r = Flow.nmos_divider flow_no_r;
    ground_wire_ohms = Flow.nmos_ground_wire_resistance flow;
    points;
    max_hand_error_db = max_err;
  }

type sec3_numbers = {
  division_ratio : float;
  r_factor : float;
  f3db_min_ghz : float;
  f3db_max_ghz : float;
  gmb_range_ms : float * float;
  gds_range_ms : float * float;
}

let sec3_numbers ?options () =
  let f3 = fig3 ?options () in
  let params = Tc.Nmos_structure.default in
  let mos = params.Tc.Nmos_structure.mos in
  let mult = float_of_int params.Tc.Nmos_structure.parallel_devices in
  let cj_total =
    mult *. (mos.Sn_circuit.Mos_model.cdb +. mos.Sn_circuit.Mos_model.csb)
  in
  let gmbs = List.map (fun p -> p.Flow.gmb_total) f3.points in
  let gdss = List.map (fun p -> p.Flow.gds_total) f3.points in
  let min_l = List.fold_left Float.min Float.infinity in
  let max_l = List.fold_left Float.max Float.neg_infinity in
  let f3db g = g /. (U.two_pi *. cj_total) in
  {
    division_ratio = 1.0 /. f3.divider;
    r_factor = f3.divider /. f3.divider_no_r;
    f3db_min_ghz = f3db (min_l gmbs) /. 1.0e9;
    f3db_max_ghz = f3db (max_l gmbs) /. 1.0e9;
    gmb_range_ms = (1.0e3 *. min_l gmbs, 1.0e3 *. max_l gmbs);
    gds_range_ms = (1.0e3 *. min_l gdss, 1.0e3 *. max_l gdss);
  }

(* ------------------------------------------------------------------ *)
(* Figure 7 *)

type fig7 = {
  carrier_freq : float;
  carrier_dbm : float;
  f_noise : float;
  model_upper_dbm : float;
  model_lower_dbm : float;
  measured_upper_dbm : float;
  measured_lower_dbm : float;
  spectrum : (float * float) list;
}

let fig7 ?(options = Flow.default_options) ?(f_noise = Flow.default_f_noise) () =
  let flow = Flow.build_vco ~options Tc.Vco_chip.default ~vtune:0.0 in
  let h = Flow.vco_transfers flow ~f_noise:[| f_noise |] in
  let osc = Flow.vco_oscillator flow in
  (* one tone, but routed through the pool so fig7 shares the sweep
     path (and its determinism guarantee) with fig8-fig10 *)
  let spur, lower, upper, samples =
    match
      Pool.map_list (Flow.pool_of options)
        (fun fn ->
          let spur = Flow.vco_spur flow ~h ~p_noise_dbm:paper_noise_dbm ~f_noise:fn in
          let samples = behavioral_samples osc ~h:(h fn) ~f_noise:fn in
          ( spur,
            measured_sideband samples ~f_noise:fn `Lower,
            measured_sideband samples ~f_noise:fn `Upper,
            samples ))
        [ f_noise ]
    with
    | [ r ] -> r
    | _ -> assert false
  in
  let spec = N.Fft.amplitude_spectrum ~fs:behavioral_fs samples in
  let spectrum =
    let pts = ref [] in
    Array.iteri
      (fun k fk ->
        let off = fk -. scaled_carrier in
        if Float.abs off <= 2.2 *. f_noise then begin
          let a = spec.N.Fft.amplitudes.(k) in
          let dbm = if a > 1e-12 then U.dbm_of_vpeak a else -140.0 in
          pts := (off, dbm) :: !pts
        end)
      spec.N.Fft.frequencies;
    List.rev !pts
  in
  {
    carrier_freq = Flow.vco_carrier_freq flow;
    carrier_dbm =
      Behavioral.carrier_dbm samples ~fs:behavioral_fs
        ~carrier_freq:scaled_carrier;
    f_noise;
    model_upper_dbm = spur.Impact.upper_dbm;
    model_lower_dbm = spur.Impact.lower_dbm;
    measured_upper_dbm = upper;
    measured_lower_dbm = lower;
    spectrum;
  }

(* ------------------------------------------------------------------ *)
(* Figure 8 *)

type fig8_point = {
  f_noise : float;
  upper_dbm : float;
  lower_dbm : float;
  behavioral_dbm : float;
}

type fig8_family = {
  vtune : float;
  carrier_ghz : float;
  points : fig8_point list;
  slope_db_per_decade : float;
  max_model_vs_behavioral_db : float;
}

let fig8 ?(options = Flow.default_options) ?(f_noise = default_f_noise) () =
  (* two sweep levels: the heavy per-family work (extraction + AC
     impact simulation) fans out over the vtunes, then the per-point
     work fans out over the full (family x f_noise) grid.  Each level
     drains before the next starts, so the pool is never re-entered. *)
  let pool = Flow.pool_of options in
  let families =
    Pool.map_list pool
      (fun vtune ->
        let flow = Flow.build_vco ~options Tc.Vco_chip.default ~vtune in
        let h = Flow.vco_transfers flow ~f_noise in
        let osc = Flow.vco_oscillator flow in
        (vtune, Flow.vco_carrier_freq flow /. 1.0e9, flow, h, osc))
      [ 0.0; 0.45; 0.9 ]
  in
  let cells =
    List.concat_map
      (fun family -> List.map (fun fn -> (family, fn)) (Array.to_list f_noise))
      families
    |> Pool.map_list pool (fun ((_, _, flow, h, osc), fn) ->
        let spur =
          Flow.vco_spur flow ~h ~p_noise_dbm:paper_noise_dbm ~f_noise:fn
        in
        (* fig 8 plots the model's two sidebands against the measured
           upper one only *)
        let upper_meas =
          measured_sideband (behavioral_samples osc ~h:(h fn) ~f_noise:fn)
            ~f_noise:fn `Upper
        in
        {
          f_noise = fn;
          upper_dbm = spur.Impact.upper_dbm;
          lower_dbm = spur.Impact.lower_dbm;
          behavioral_dbm = upper_meas;
        })
  in
  let n_points = Array.length f_noise in
  List.mapi
    (fun i (vtune, carrier_ghz, _, _, _) ->
      let points = List.filteri (fun j _ -> j / n_points = i) cells in
      let slope =
        N.Stats.slope_db_per_decade
          (Array.of_list (List.map (fun p -> p.f_noise) points))
          (Array.of_list (List.map (fun p -> p.upper_dbm) points))
      in
      let max_err =
        List.fold_left
          (fun acc p ->
            Float.max acc (Float.abs (p.upper_dbm -. p.behavioral_dbm)))
          0.0 points
      in
      {
        vtune;
        carrier_ghz;
        points;
        slope_db_per_decade = slope;
        max_model_vs_behavioral_db = max_err;
      })
    families

(* ------------------------------------------------------------------ *)
(* Figure 9 *)

type fig9_entry = {
  label : string;
  spur_dbm_by_freq : (float * float) list;
  slope_db_per_decade : float;
}

type fig9 = {
  entries : fig9_entry list;
  ground_minus_backgate_db : float;
  inductor_flatness_db : float;
}

let fig9 ?(options = Flow.default_options) ?(f_noise = default_f_noise) () =
  let flow = Flow.build_vco ~options Tc.Vco_chip.default ~vtune:0.0 in
  let h = Flow.vco_transfers flow ~f_noise in
  let spurs =
    Array.to_list f_noise
    |> Pool.map_list (Flow.pool_of options) (fun fn ->
           (fn, Flow.vco_spur flow ~h ~p_noise_dbm:paper_noise_dbm ~f_noise:fn))
  in
  let labels =
    match spurs with
    | (_, first) :: _ ->
      List.map (fun c -> c.Impact.entry_label) first.Impact.contributions
    | [] -> []
  in
  let entry_curve label =
    List.map
      (fun (fn, spur) ->
        let c =
          List.find
            (fun c -> String.equal c.Impact.entry_label label)
            spur.Impact.contributions
        in
        (fn, c.Impact.spur_dbm))
      spurs
  in
  let entries =
    List.map
      (fun label ->
        let curve = entry_curve label in
        let slope =
          N.Stats.slope_db_per_decade
            (Array.of_list (List.map fst curve))
            (Array.of_list (List.map snd curve))
        in
        { label; spur_dbm_by_freq = curve; slope_db_per_decade = slope })
      labels
  in
  let at_10mhz label =
    let curve = entry_curve label in
    N.Sweep.interp1
      (Array.of_list (List.map fst curve))
      (Array.of_list (List.map snd curve))
      10.0e6
  in
  let inductor_curve = entry_curve "inductor" in
  let ind_values = List.map snd inductor_curve in
  let flatness =
    List.fold_left Float.max Float.neg_infinity ind_values
    -. List.fold_left Float.min Float.infinity ind_values
  in
  {
    entries;
    ground_minus_backgate_db =
      at_10mhz "ground interconnect" -. at_10mhz "nmos back-gate";
    inductor_flatness_db = flatness;
  }

(* ------------------------------------------------------------------ *)
(* Figure 10 *)

type fig10 = {
  wire_ohms_normal : float;
  wire_ohms_widened : float;
  points : (float * float * float) list;
  mean_improvement_db : float;
}

let fig10 ?(options = Flow.default_options) ?(f_noise = default_f_noise) () =
  (* the two variants (normal / widened ground) are independent full
     extractions: build them as parallel sweep points, then fan the
     per-frequency spur pairs out *)
  let pool = Flow.pool_of options in
  let normal, widened =
    match
      Pool.map_list pool
        (fun options ->
          let flow = Flow.build_vco ~options Tc.Vco_chip.default ~vtune:0.0 in
          (flow, Flow.vco_transfers flow ~f_noise))
        [ options; { options with Flow.widen_ground = Some 2.0 } ]
    with
    | [ n; w ] -> (n, w)
    | _ -> assert false
  in
  let points =
    Array.to_list f_noise
    |> Pool.map_list pool (fun fn ->
           let s_n =
             Flow.vco_spur (fst normal) ~h:(snd normal)
               ~p_noise_dbm:paper_noise_dbm ~f_noise:fn
           in
           let s_w =
             Flow.vco_spur (fst widened) ~h:(snd widened)
               ~p_noise_dbm:paper_noise_dbm ~f_noise:fn
           in
           (fn, s_n.Impact.upper_dbm, s_w.Impact.upper_dbm))
  in
  let deltas = List.map (fun (_, n, w) -> n -. w) points in
  {
    wire_ohms_normal = Flow.vco_ground_wire_resistance (fst normal);
    wire_ohms_widened = Flow.vco_ground_wire_resistance (fst widened);
    points;
    mean_improvement_db = N.Stats.mean (Array.of_list deltas);
  }

(* ------------------------------------------------------------------ *)
(* VCO design card *)

type vco_card = {
  carrier_ghz : float;
  kvco_mhz_per_v : float;
  tuning_range_ghz : float * float;
  phase_noise_100k_dbc : float;
  core_current_ma : float;
  supply_v : float;
}

let vco_card ?(options = Flow.default_options) () =
  let params = Tc.Vco_chip.default in
  let flow = Flow.build_vco ~options params ~vtune:Flow.default_vtune in
  let tank = params.Tc.Vco_chip.tank in
  let fc_at vt = Tank.frequency tank (Tank.quiet_bias ~v_tune:vt) in
  let pn =
    { Sn_rf.Phase_noise.default_vco with
      Sn_rf.Phase_noise.carrier_freq = Flow.vco_carrier_freq flow }
  in
  {
    carrier_ghz = Flow.vco_carrier_freq flow /. 1.0e9;
    kvco_mhz_per_v = Tank.kvco tank ~v_tune:Flow.default_vtune /. 1.0e6;
    tuning_range_ghz = (fc_at 0.0 /. 1.0e9, fc_at 1.8 /. 1.0e9);
    phase_noise_100k_dbc = Sn_rf.Phase_noise.dbc_per_hz pn 100.0e3;
    core_current_ma = 1.0e3 *. params.Tc.Vco_chip.tail_current;
    supply_v = 1.8;
  }

(* ------------------------------------------------------------------ *)
(* Digital aggressor extension *)

type aggressor_comb = {
  aggressor : Sn_rf.Aggressor.t;
  lines : Sn_rf.Aggressor.comb_line list;
  total_dbm : float;
}

let aggressor_comb ?(options = Flow.default_options) () =
  let aggressor = Sn_rf.Aggressor.default in
  let flow = Flow.build_vco ~options Tc.Vco_chip.default ~vtune:0.0 in
  let freqs =
    Array.init aggressor.Sn_rf.Aggressor.harmonics (fun i ->
        float_of_int (i + 1) *. aggressor.Sn_rf.Aggressor.clock_freq)
  in
  let h = Flow.vco_transfers flow ~f_noise:freqs in
  let osc = Flow.vco_oscillator flow in
  let lines = Sn_rf.Aggressor.spur_comb aggressor ~osc ~h in
  { aggressor; lines;
    total_dbm = Sn_rf.Aggressor.total_spur_power_dbm lines }

(* ------------------------------------------------------------------ *)
(* Ablations *)

type grid_ablation = { grid : Sn_substrate.Grid.config; grid_divider : float }

type ablations = {
  grid_resolution : grid_ablation list;
  backside_open_db : float;
  backside_grounded_db : float;
  corners : Corners.vco_corner_result list;
}

(* the lateral grids of the resolution study, each with its vertical
   subdivision; 48^2 is the default *)
let ablation_grids =
  List.map
    (fun (nx, z) -> { Sn_substrate.Grid.nx; ny = nx; z_per_layer = Some z })
    [ (32, [ 1; 3; 2; 1 ]); (48, [ 1; 4; 3; 2 ]); (64, [ 1; 5; 3; 2 ]);
      (80, [ 1; 5; 3; 2 ]) ]

(* victim coupling on a 100 um die, an injector and a probe 65 um apart
   and a grounded tap between them, with the backside open or
   metallized and grounded *)
let backside_coupling_db options ~grounded_backplane =
  let module G = Sn_geometry in
  let module Port = Sn_substrate.Port in
  let port name kind x0 y0 =
    Port.v ~name ~kind [ G.Rect.make x0 y0 (x0 +. 10.0) (y0 +. 10.0) ]
  in
  let m =
    Sn_substrate.Extractor.extract
      ~config:
        { Sn_substrate.Grid.nx = 32; ny = 32; z_per_layer = Some [ 1; 3; 2; 2 ] }
      ~grounded_backplane ?pool:options.Flow.pool ~tech:options.Flow.tech
      ~die:(G.Rect.make 0.0 0.0 100.0 100.0)
      [ port "inj" Port.Resistive 5.0 45.0; port "vic" Port.Probe 80.0 45.0;
        port "tap" Port.Resistive 45.0 5.0 ]
  in
  let grounded =
    if grounded_backplane then [ "tap"; "backplane" ] else [ "tap" ]
  in
  U.db_of_ratio
    (Sn_substrate.Macromodel.divider m ~inject:"inj" ~sense:"vic" ~grounded)

let ablations ?(options = Flow.default_options) () =
  let grid_resolution =
    List.map
      (fun grid ->
        let flow =
          Flow.build_nmos ~options:{ options with Flow.grid }
            Tc.Nmos_structure.default
        in
        { grid; grid_divider = Flow.nmos_divider flow })
      ablation_grids
  in
  {
    grid_resolution;
    backside_open_db =
      backside_coupling_db options ~grounded_backplane:false;
    backside_grounded_db =
      backside_coupling_db options ~grounded_backplane:true;
    corners = Corners.vco_spread ~options ();
  }

(* ------------------------------------------------------------------ *)
(* Runtime *)

type runtime = {
  extraction_seconds : float;
  simulation_seconds : float;
  grid_cells : int;
  extractor : Sn_substrate.Extractor.stats option;
  pool : Sn_engine.Pool.stats;
  tile_cache : Sn_substrate.Cache.resolution;
  reduction : Reduced_model.stats option;
}

let runtime ?(options = Flow.default_options) () =
  let pool = Flow.pool_of options in
  Pool.reset_stats pool;
  let t0 = Unix.gettimeofday () in
  let flow = Flow.build_vco ~options Tc.Vco_chip.default ~vtune:0.0 in
  let t1 = Unix.gettimeofday () in
  let h = Flow.vco_transfers flow ~f_noise:default_f_noise in
  ignore
    (Pool.map_array pool
       (fun fn ->
         Flow.vco_spur flow ~h ~p_noise_dbm:paper_noise_dbm ~f_noise:fn)
       default_f_noise);
  let t2 = Unix.gettimeofday () in
  let xstats = Sn_substrate.Extractor.last_stats () in
  let cells =
    match xstats with
    | Some s -> s.Sn_substrate.Extractor.grid_cells
    | None -> 0
  in
  {
    extraction_seconds = t1 -. t0;
    simulation_seconds = t2 -. t1;
    grid_cells = cells;
    extractor = xstats;
    pool = Pool.stats pool;
    tile_cache = Sn_substrate.Cache.resolution ();
    reduction = Flow.vco_reduction flow;
  }
