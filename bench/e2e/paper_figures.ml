(* paper_figures: regenerate the paper's figures the way a user with a
   fresh --cache-dir does.  Each iteration starts from an empty tile
   cache, so the NMOS structure and the VCO die are each extracted
   cold once (untiled MG-CG) and every later figure reuses them.  The
   inputs are the paper's; the seed is unused.

   Set-up builds the cacheless Fig. 3 reference: the NMOS structure's
   SUB -> back-gate divider, which every regeneration must reproduce
   bit for bit. *)

module E = Snoise.Experiments
module Flow = Snoise.Flow
module Cache = Sn_substrate.Cache

let band name lo hi v =
  Harness.check (v >= lo && v <= hi) "%s = %g outside [%g, %g]" name v lo hi

(* The acceptance bands of EXPERIMENTS.md. *)
let check_bands (f3 : E.fig3) (s3 : E.sec3_numbers) (f7 : E.fig7)
    (f8 : E.fig8_family list) (f9 : E.fig9) (f10 : E.fig10) =
  band "fig3 division ratio" 400.0 1200.0 (1.0 /. f3.divider);
  band "fig3 R factor" 1.5 3.0 (f3.divider /. f3.divider_no_r);
  List.iter
    (fun (p : Flow.nmos_point) ->
      band "fig3 transfer dB" (-57.0) (-42.0) p.transfer_sim_db)
    f3.points;
  band "fig3 hand error dB" 0.0 1.0 f3.max_hand_error_db;
  band "sec3 gmb min mS" 6.0 16.0 (fst s3.gmb_range_ms);
  band "sec3 gmb max mS" 28.0 55.0 (snd s3.gmb_range_ms);
  band "sec3 gds min mS" 1.5 4.5 (fst s3.gds_range_ms);
  band "sec3 gds max mS" 15.0 32.0 (snd s3.gds_range_ms);
  band "sec3 f3db low GHz" 3.0 8.0 s3.f3db_min_ghz;
  band "sec3 f3db high GHz" 14.0 30.0 s3.f3db_max_ghz;
  band "fig7 carrier GHz" 2.5 3.7 (f7.carrier_freq /. 1e9);
  band "fig7 model vs DFT dB" 0.0 2.0
    (Float.abs (f7.model_upper_dbm -. f7.measured_upper_dbm));
  Harness.check (List.length f8 = 3) "fig8: %d families" (List.length f8);
  List.iter
    (fun (f : E.fig8_family) ->
      band "fig8 slope dB/dec" (-22.0) (-17.0) f.slope_db_per_decade;
      band "fig8 model vs behavioral dB" 0.0 2.0 f.max_model_vs_behavioral_db)
    f8;
  band "fig9 ground - backgate dB" 12.0 28.0 f9.ground_minus_backgate_db;
  band "fig9 inductor flatness dB" 0.0 2.0 f9.inductor_flatness_db;
  band "fig10 mean improvement dB" 3.0 6.0 f10.mean_improvement_db;
  band "fig10 widened / normal wire R" 0.45 0.55
    (f10.wire_ohms_widened /. f10.wire_ohms_normal)

let setup ~seed:_ ~rep:_ =
  Cache.set_default_dir None;
  let reference_divider =
    Flow.nmos_divider (Flow.build_nmos Sn_testchip.Nmos_structure.default)
  in
  let first = ref None in
  let iterate i =
    let dir = Host.fresh_dir (Printf.sprintf "paper_figures-%d" i) in
    Cache.set_default_dir (Some dir);
    let figures, outcome =
      Harness.timed (fun () ->
          let f3 = Trace.span "experiments.fig3" (fun () -> E.fig3 ()) in
          let s3 = Trace.span "experiments.sec3" (fun () -> E.sec3_numbers ()) in
          let f7 = Trace.span "experiments.fig7" (fun () -> E.fig7 ()) in
          let f8 = Trace.span "experiments.fig8" (fun () -> E.fig8 ()) in
          let f9 = Trace.span "experiments.fig9" (fun () -> E.fig9 ()) in
          let f10 = Trace.span "experiments.fig10" (fun () -> E.fig10 ()) in
          (f3, s3, f7, f8, f9, f10))
    in
    Cache.set_default_dir None;
    Host.rm_rf dir;
    Harness.checked outcome (fun () ->
        let f3, s3, f7, f8, f9, f10 = figures in
        check_bands f3 s3 f7 f8 f9 f10;
        Harness.check
          (Float.equal f3.divider reference_divider)
          "fig3 divider %.17g differs from the cacheless flow's %.17g" f3.divider
          reference_divider;
        match !first with
        | None -> first := Some figures
        | Some f -> Harness.check (f = figures) "regeneration %d differs from the first" i)
  in
  { Harness.iterate; finish = ignore; teardown = ignore }

let workload = { Harness.name = "paper_figures"; warmup = 0; setup }
