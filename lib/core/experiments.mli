(** Drivers that regenerate every table and figure of the paper's
    evaluation.  Each function returns a structured result record; the
    benchmark harness and the CLI print them, and the test suite
    asserts the acceptance bands recorded in EXPERIMENTS.md.  Every
    driver takes its whole run configuration as [?options]
    ({!Flow.options}); the sweep fan-outs run on its [pool]. *)

val paper_noise_dbm : float
(** {!Flow.paper_noise_dbm}, the paper's injected tone power. *)

(** {1 Figure 3 / section 3: NMOS measurement structure} *)

type fig3 = {
  divider : float;  (** SUB -> back-gate division (paper: ~1/652) *)
  divider_no_r : float;  (** same with wire resistance zeroed *)
  ground_wire_ohms : float;
  points : Flow.nmos_point list;  (** bias sweep at 5 MHz *)
  max_hand_error_db : float;  (** worst |sim - hand| (paper: <= 1 dB) *)
}

val fig3 : ?options:Flow.options -> unit -> fig3
(** Reproduce the Fig. 3 structure characterization: extract the
    measurement structure, compute the divider with and without wire
    resistance, and sweep the bias grid at 5 MHz. *)

(** Scalar claims of the paper's section 3 text, checked as a group. *)
type sec3_numbers = {
  division_ratio : float;  (** 1 / divider *)
  r_factor : float;  (** divider with R / divider without R (paper: ~2) *)
  f3db_min_ghz : float;  (** junction-cap crossover band (paper: 5-19 GHz) *)
  f3db_max_ghz : float;
  gmb_range_ms : float * float;  (** paper: 10-38 mS *)
  gds_range_ms : float * float;  (** paper: 2.8-22 mS *)
}

val sec3_numbers : ?options:Flow.options -> unit -> sec3_numbers
(** Derive the section-3 scalar claims from a fresh NMOS flow. *)

(** {1 Figure 7: VCO output spectrum} *)

(** Single-tone VCO spectrum: closed-form spur prediction next to the
    DFT of the synthesized waveform. *)
type fig7 = {
  carrier_freq : float;
  carrier_dbm : float;
  f_noise : float;
  model_upper_dbm : float;  (** closed-form eq. (2)/(3) prediction *)
  model_lower_dbm : float;
  measured_upper_dbm : float;  (** DFT on the synthesized waveform *)
  measured_lower_dbm : float;
  spectrum : (float * float) list;
      (** (offset from f_c in Hz, dBm) points around the carrier for
          rendering the Figure 7 spectrum *)
}

val fig7 : ?options:Flow.options -> ?f_noise:float -> unit -> fig7
(** Default tone: the paper's -5 dBm at 10 MHz, Vtune = 0. *)

(** {1 Figure 8: total spur power vs noise frequency and Vtune} *)

(** One noise frequency of a Fig. 8 family. *)
type fig8_point = {
  f_noise : float;
  upper_dbm : float;
  lower_dbm : float;
  behavioral_dbm : float;
      (** cross-check: spur measured by DFT on the synthesized
          oscillator waveform (the "measurement" leg) *)
}

(** Spur-vs-frequency curve of one tuning voltage. *)
type fig8_family = {
  vtune : float;
  carrier_ghz : float;
  points : fig8_point list;
  slope_db_per_decade : float;  (** paper: -20 (resistive coupling + FM) *)
  max_model_vs_behavioral_db : float;  (** paper: <= 2 dB *)
}

val fig8 :
  ?options:Flow.options -> ?vtunes:float list -> ?f_noise:float array ->
  unit -> fig8_family list
(** Sweep spur power over noise frequency for each tuning voltage
    (default Vtune 0, 0.45, 0.9 V).  Each family rebuilds the VCO flow
    at its [vtune]; families and points both fan out on the sweep
    pool. *)

(** {1 Figure 9: per-device contributions} *)

(** Spur curve of a single coupling entry point (ground wire, back
    gate, varactor well, inductor). *)
type fig9_entry = {
  label : string;  (** entry-point name as the figure legend shows it *)
  spur_dbm_by_freq : (float * float) list;  (** (f_noise Hz, dBm) *)
  slope_db_per_decade : float;  (** fitted low-frequency slope *)
}

(** Decomposition of the total spur into per-entry-point curves. *)
type fig9 = {
  entries : fig9_entry list;
  ground_minus_backgate_db : float;
      (** gap at 10 MHz (paper: ~20 dB) *)
  inductor_flatness_db : float;
      (** max-min of the inductor curve (paper: ~0, capacitive + FM) *)
}

val fig9 : ?options:Flow.options -> ?f_noise:float array -> unit -> fig9
(** Sweep the spur model and regroup its per-entry-point contribution
    terms into one curve per coupling mechanism. *)

(** {1 Figure 10: ground interconnect sizing} *)

(** Effect of widening the ground interconnect on the dominant
    (resistive) coupling path. *)
type fig10 = {
  wire_ohms_normal : float;
  wire_ohms_widened : float;
  points : (float * float * float) list;
      (** (f_noise, spur normal dBm, spur widened dBm) *)
  mean_improvement_db : float;  (** paper: ~4.5 dB (6 dB ideal) *)
}

val fig10 : ?options:Flow.options -> ?f_noise:float array -> unit -> fig10
(** Build the nominal and 2x-widened-ground flows (in parallel on the
    sweep pool) and compare their spur curves. *)

(** {1 Section 4 design card} *)

(** Headline VCO numbers the paper's section 4 quotes. *)
type vco_card = {
  carrier_ghz : float;  (** paper: ~3 GHz *)
  kvco_mhz_per_v : float;
  tuning_range_ghz : float * float;
  phase_noise_100k_dbc : float;  (** paper: -100 dBc/Hz @ 100 kHz *)
  core_current_ma : float;  (** paper: 5 mA *)
  supply_v : float;  (** paper: 1.8 V *)
}

val vco_card : ?options:Flow.options -> unit -> vco_card
(** Evaluate the design card from the extracted VCO flow (carrier and
    Kvco from a tuning sweep, phase noise from the oscillator model). *)

(** {1 Extension: digital aggressor (conclusion / ref. [10])} *)

(** Spur comb a clocked digital block imprints on the VCO output. *)
type aggressor_comb = {
  aggressor : Sn_rf.Aggressor.t;
  lines : Sn_rf.Aggressor.comb_line list;
  total_dbm : float;
}

val aggressor_comb :
  ?options:Flow.options -> ?aggressor:Sn_rf.Aggressor.t -> unit ->
  aggressor_comb
(** Predict the spur comb a synchronous digital block imprints on the
    VCO through the extracted substrate and interconnect models. *)

(** {1 Ablations}

    The studies behind EXPERIMENTS.md's ablation list that no figure
    covers.  The classical-flow ablation is {!fig3}'s [divider_no_r]. *)

(** The NMOS structure's SUB -> back-gate divider on one grid. *)
type grid_ablation = {
  grid : Sn_substrate.Grid.config;
  grid_divider : float;
}

type ablations = {
  grid_resolution : grid_ablation list;
      (** lateral grids 32{^2}, 48{^2} (the default), 64{^2} and 80{^2} *)
  backside_open_db : float;
      (** victim coupling on a 100 um die with a grounded tap, open
          backside *)
  backside_grounded_db : float;
      (** the same with the backside metallized and grounded *)
  corners : Corners.vco_corner_result list;
      (** VCO spur at 10 MHz across {!Corners.corners_3sigma} *)
}

val ablations : ?options:Flow.options -> unit -> ablations
(** Run the grid-resolution, backside-metallization and process-corner
    studies.  [options.grid] is replaced by each grid of the
    resolution study. *)

(** {1 Runtime (section 6 note)} *)

type runtime = {
  extraction_seconds : float;  (** wall time of the model build *)
  simulation_seconds : float;  (** wall time of the impact sweep *)
  grid_cells : int;  (** FDM cells of the substrate extraction *)
  extractor : Sn_substrate.Extractor.stats option;
      (** extractor phase timings, CG iteration count and macromodel
          cache hit/miss counters of the flow's substrate
          extraction *)
  pool : Sn_engine.Pool.stats;
      (** worker-pool counters of the impact sweep (tasks, per-worker
          busy time, effective parallelism) *)
  tile_cache : Sn_substrate.Cache.resolution;
      (** how the substrate tile-cache directory resolved
          ([--cache-dir] / [SNOISE_CACHE_DIR] / disabled) — the knob
          that decides whether this extraction could run warm *)
  reduction : Reduced_model.stats option;
      (** the flow's own model-order reduction ({!Flow.vco_reduction}:
          order, rank, build time, estimated error) when
          [options.reduce] is set and the reduction won *)
}

val runtime : ?options:Flow.options -> unit -> runtime
(** Time one full flow run — extraction, then the default noise-
    frequency impact sweep on the run's pool — mirroring the paper's
    "20 min + 15 min on an HP-UX L2000" section-6 note. *)
