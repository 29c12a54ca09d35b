(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   section (the rows/series the paper reports, with the paper's values
   quoted inline).

   Part 2 runs one Bechamel microbenchmark per experiment so the
   extraction-vs-simulation cost split of the paper's section-6
   runtime note can be compared on this machine. *)

module E = Snoise.Experiments
module R = Snoise.Report
module Flow = Snoise.Flow

let fmt = Format.std_formatter

(* [f pool] on a fresh worker pool of width [jobs], shut down after *)
let with_pool jobs f =
  let pool = Sn_engine.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Sn_engine.Pool.shutdown pool) (fun () ->
      f pool)

let banner title =
  Format.fprintf fmt "@.%s@.%s@.%s@." (String.make 72 '=') title
    (String.make 72 '=')

(* ------------------------------------------------------------------ *)
(* Part 1: reproduce the evaluation section *)

let reproduce_all () =
  banner "Part 1 - paper evaluation reproduced";
  R.fig3 fmt (E.fig3 ());
  R.sec3 fmt (E.sec3_numbers ());
  R.fig7 fmt (E.fig7 ());
  R.fig8 fmt (E.fig8 ());
  R.fig9 fmt (E.fig9 ());
  R.fig10 fmt (E.fig10 ());
  R.vco_card fmt (E.vco_card ());
  R.aggressor fmt (E.aggressor_comb ());
  R.runtime fmt (E.runtime ());
  Format.pp_print_flush fmt ()

(* grid-resolution ablation: the DESIGN.md convergence study *)
let ablation_grid () =
  banner "Ablation - substrate grid resolution";
  Format.fprintf fmt "%10s %14s %16s@." "grid" "cells" "divider 1/x";
  List.iter
    (fun (nx, z) ->
      let options =
        { Flow.default_options with
          Flow.grid = { Sn_substrate.Grid.nx; ny = nx; z_per_layer = Some z } }
      in
      let flow = Flow.build_nmos ~options Sn_testchip.Nmos_structure.default in
      let cells =
        match Sn_substrate.Extractor.last_stats () with
        | Some s -> s.Sn_substrate.Extractor.grid_cells
        | None -> 0
      in
      Format.fprintf fmt "%10s %14d %16.0f@."
        (Printf.sprintf "%dx%d" nx nx)
        cells
        (1.0 /. Flow.nmos_divider flow))
    [ (32, [ 1; 3; 2; 1 ]); (48, [ 1; 4; 3; 2 ]); (64, [ 1; 5; 3; 2 ]);
      (80, [ 1; 5; 3; 2 ]) ];
  Format.fprintf fmt
    "(the default 48x48 baseline, with edge snapping, is converged to within a few percent)@.";
  Format.pp_print_flush fmt ()

(* interconnect-resistance ablation: the headline claim *)
let ablation_interconnect () =
  banner "Ablation - classical flow (interconnect R ignored)";
  let with_r = E.fig3 () in
  Format.fprintf fmt
    "divider with extracted wire R : 1/%.0f@." (1.0 /. with_r.E.divider);
  Format.fprintf fmt
    "divider with ideal wires      : 1/%.0f@." (1.0 /. with_r.E.divider_no_r);
  Format.fprintf fmt
    "-> ignoring the interconnect underestimates coupling by %.1f dB@."
    (20.0 *. log10 (with_r.E.divider /. with_r.E.divider_no_r));
  Format.pp_print_flush fmt ()

(* backside metallization ablation: the strongest countermeasure the
   substrate extractor can evaluate *)
let ablation_backplane () =
  banner "Ablation - backside metallization";
  let module G = Sn_geometry in
  let module Port = Sn_substrate.Port in
  let module Mac = Sn_substrate.Macromodel in
  let die = G.Rect.make 0.0 0.0 100.0 100.0 in
  let ports =
    [ Port.v ~name:"inj" ~kind:Port.Resistive
        [ G.Rect.make 5.0 45.0 15.0 55.0 ];
      Port.v ~name:"vic" ~kind:Port.Probe
        [ G.Rect.make 80.0 45.0 90.0 55.0 ];
      Port.v ~name:"tap" ~kind:Port.Resistive
        [ G.Rect.make 45.0 5.0 55.0 15.0 ] ]
  in
  let cfg =
    { Sn_substrate.Grid.nx = 32; ny = 32; z_per_layer = Some [ 1; 3; 2; 2 ] }
  in
  let run ~backplane ~grounded =
    let m =
      Sn_substrate.Extractor.extract ~config:cfg
        ~grounded_backplane:backplane ~tech:Sn_tech.Tech.imec018 ~die ports
    in
    20.0 *. log10 (Mac.divider m ~inject:"inj" ~sense:"vic" ~grounded)
  in
  let open_back = run ~backplane:false ~grounded:[ "tap" ] in
  let plated = run ~backplane:true ~grounded:[ "tap"; "backplane" ] in
  Format.fprintf fmt "victim coupling, open backside    : %6.1f dB@." open_back;
  Format.fprintf fmt "victim coupling, grounded backside: %6.1f dB@." plated;
  Format.fprintf fmt "-> backside metallization buys %.1f dB here@."
    (open_back -. plated);
  Format.pp_print_flush fmt ()

(* process corners: the sign-off spread *)
let ablation_corners () =
  banner "Ablation - process corners (VCO spur at fc + 10 MHz)";
  let results = Snoise.Corners.vco_spread () in
  List.iter
    (fun (r : Snoise.Corners.vco_corner_result) ->
      Format.fprintf fmt "%-12s %8.1f dBm@."
        r.Snoise.Corners.corner.Snoise.Corners.name
        r.Snoise.Corners.spur_at_10mhz_dbm)
    results;
  Format.fprintf fmt "-> spread %.1f dB across corners@."
    (Snoise.Corners.spread_db results);
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Part 3: domain-parallel sweep scaling (BENCH_2.json)

   The workload is the fig8 point evaluation — spur model plus the
   behavioral "measurement" leg (64k-sample synthesis + windowed DFT
   readback) — over a 16-point frequency sweep, repeated at pool
   widths 1/2/4/8.  Width 1 is the exact sequential path, so the
   speedup column is directly parallel-vs-sequential. *)

let sweep_scaling () =
  banner "Part 3 - domain-parallel sweep scaling";
  let module Pool = Sn_engine.Pool in
  let flow = Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.0 in
  let f_noise = Sn_numerics.Sweep.logspace 1.0e6 15.0e6 16 in
  let h = Flow.vco_transfers flow ~f_noise in
  let osc = Flow.vco_oscillator flow in
  let point fn =
    let spur = Flow.vco_spur flow ~h ~p_noise_dbm:(-5.0) ~f_noise:fn in
    let beta, m_am =
      Sn_rf.Impact.total_modulation osc ~h:(h fn) ~a_noise:0.178 ~f_noise:fn
    in
    let samples =
      Sn_rf.Behavioral.synthesize ~carrier_freq:64.0e6
        ~amplitude:osc.Sn_rf.Impact.amplitude
        ~tones:[ { Sn_rf.Behavioral.f_noise = fn; beta; m_am } ]
        ~fs:320.0e6 ~n:65536
    in
    let upper =
      Sn_rf.Behavioral.measured_sideband_dbm samples ~fs:320.0e6
        ~carrier_freq:64.0e6 ~f_noise:fn `Upper
    in
    (spur.Sn_rf.Impact.upper_dbm, upper)
  in
  let points = Array.to_list f_noise in
  let runs = 3 in
  let time_width jobs =
    let pool = Pool.create ~jobs () in
    ignore (Pool.map_list pool point points) (* warm-up *);
    Pool.reset_stats pool;
    let t0 = Unix.gettimeofday () in
    let last = ref [] in
    for _ = 1 to runs do
      last := Pool.map_list pool point points
    done;
    let wall = (Unix.gettimeofday () -. t0) /. float_of_int runs in
    let stats = Pool.stats pool in
    Pool.shutdown pool;
    (jobs, wall, stats, !last)
  in
  let widths = [ 1; 2; 4; 8 ] in
  let curves = List.map time_width widths in
  let seq_wall, seq_result =
    match curves with
    | (1, w, _, r) :: _ -> (w, r)
    | _ -> assert false
  in
  Format.fprintf fmt "%6s %12s %10s %14s %10s@." "jobs" "wall/sweep"
    "speedup" "cpu (3 runs)" "imbalance";
  List.iter
    (fun (jobs, wall, stats, result) ->
      (* parallel sweeps must be bit-identical to the sequential path *)
      assert (result = seq_result);
      Format.fprintf fmt "%6d %9.1f ms %9.2fx %11.1f ms %10.2f@." jobs
        (1.0e3 *. wall) (seq_wall /. wall)
        (1.0e3 *. Pool.cpu_seconds stats)
        (Pool.imbalance stats))
    curves;
  Format.fprintf fmt
    "(recommended domain count here: %d; parallel results asserted \
     bit-identical to jobs=1)@."
    (Domain.recommended_domain_count ());
  let oc = open_out "BENCH_2.json" in
  Printf.fprintf oc
    "{\n  \"sweep_scaling\": {\n    \"points\": %d,\n    \
     \"runs_per_width\": %d,\n    \"recommended_domains\": %d,\n    \
     \"curves\": [\n"
    (List.length points) runs
    (Domain.recommended_domain_count ());
  let n_curves = List.length curves in
  List.iteri
    (fun i (jobs, wall, stats, _) ->
      Printf.fprintf oc
        "      { \"jobs\": %d, \"wall_seconds\": %.6f, \"speedup\": %.3f, \
         \"cpu_seconds\": %.6f, \"imbalance\": %.3f }%s\n"
        jobs wall (seq_wall /. wall)
        (Pool.cpu_seconds stats)
        (Pool.imbalance stats)
        (if i = n_curves - 1 then "" else ","))
    curves;
  output_string oc "    ]\n  }\n}\n";
  close_out oc;
  Format.fprintf fmt "wrote sweep-scaling curves to BENCH_2.json@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Part 4: robustness-layer overhead on the healthy path (BENCH_3.json)

   The rescue ladder threads fault-injection polls and attempt
   recording through the DC and transient hot paths.  A healthy run
   never climbs past the plain Newton rung, so the cost must stay in
   the noise.  Two probes: a long fixed-step linear transient (the
   frozen-LU fast path, where a per-step poll would show up first) and
   the full fig7 spur sweep.  Each runs with the fault hook disarmed
   and with a fault armed that can never fire — the worst case for the
   polling cost, since every factorization bumps the atomic counter. *)

let rescue_overhead () =
  banner "Part 4 - robustness-layer overhead on the healthy path";
  let module Fault = Sn_engine.Fault in
  let module C = Sn_circuit in
  let module El = C.Element in
  let rc_ladder =
    let n = 40 in
    let stages =
      List.concat
        (List.init n (fun k ->
             let a = if k = 0 then "in" else Printf.sprintf "n%d" k in
             let b = Printf.sprintf "n%d" (k + 1) in
             [ El.Resistor
                 { name = Printf.sprintf "r%d" k; n1 = a; n2 = b;
                   ohms = 100.0 };
               El.Capacitor
                 { name = Printf.sprintf "c%d" k; n1 = b; n2 = "0";
                   farads = 1e-12 } ]))
    in
    C.Netlist.create
      (El.Vsource
         { name = "v1"; np = "in"; nn = "0"; wave = C.Waveform.dc 1.0;
           ac_mag = 0.0 }
      :: stages)
  in
  let tran_workload () =
    ignore (Sn_engine.Tran.simulate ~tstop:2.0e-7 ~dt:1.0e-10 rc_ladder)
  in
  let fig7_workload () = ignore (E.fig7 ~f_noise:10.0e6 ()) in
  let time ~runs f =
    f () (* warm-up *);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to runs do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int runs
  in
  let probe (name, runs, f) =
    Fault.disarm ();
    let off = time ~runs f in
    (* armed but unreachable: pure polling cost *)
    Fault.arm Fault.Factor (Fault.Nth max_int);
    let on_ = time ~runs f in
    Fault.disarm ();
    let ratio = on_ /. off in
    Format.fprintf fmt "%-16s %9.1f ms disarmed %9.1f ms armed %8.3fx@."
      name (1.0e3 *. off) (1.0e3 *. on_) ratio;
    (name, runs, off, on_, ratio)
  in
  let rows =
    List.map probe
      [ ("tran-fixed-step", 5, tran_workload); ("fig7-sweep", 2, fig7_workload) ]
  in
  let oc = open_out "BENCH_3.json" in
  output_string oc "{\n  \"rescue_overhead\": {\n    \"workloads\": [\n";
  let n_rows = List.length rows in
  List.iteri
    (fun i (name, runs, off, on_, ratio) ->
      Printf.fprintf oc
        "      { \"name\": \"%s\", \"runs\": %d, \"disarmed_seconds\": \
         %.6f, \"armed_idle_seconds\": %.6f, \"overhead_ratio\": %.3f }%s\n"
        name runs off on_ ratio
        (if i = n_rows - 1 then "" else ","))
    rows;
  output_string oc "    ]\n  }\n}\n";
  close_out oc;
  Format.fprintf fmt "wrote rescue-overhead probes to BENCH_3.json@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Part 5: the sparse complex frequency-domain engine (BENCH_4.json)

   An RC mesh of 18 x 18 nodes (326 unknowns, every node loaded by a
   capacitor, driven from one corner through 50 ohm) swept over 120
   log-spaced frequency points.  The sparse engine (one compiled
   G + jwB plan, one symbolic factorization, slot-replay refills) is
   compared against the dense reference formulation (full matrix
   assembly + dense complex LU per point), timed on a subset of points
   and extrapolated.  The same mesh drives the adjoint noise
   comparison: transpose solve on the shared sparse factorization
   versus the materialized-transpose dense solve the noise engine used
   to perform.  Agreement (<= 1e-9 relative) and jobs=1 vs jobs=4
   byte-identity are asserted, so "bench part5" doubles as a CI smoke
   gate. *)

let frequency_domain () =
  banner "Part 5 - sparse frequency-domain engine (AC sweep + adjoint noise)";
  let module C = Sn_circuit in
  let module El = C.Element in
  let module Eng = Sn_engine in
  let module N = Sn_numerics in
  let n_side = 18 in
  let name i j = Printf.sprintf "n%d_%d" i j in
  let elems = ref [] in
  let emit e = elems := e :: !elems in
  for i = 0 to n_side - 1 do
    for j = 0 to n_side - 1 do
      let here = name i j in
      if i < n_side - 1 then
        emit
          (El.Resistor
             { name = Printf.sprintf "rr%d_%d" i j; n1 = here;
               n2 = name (i + 1) j; ohms = 100.0 });
      if j < n_side - 1 then
        emit
          (El.Resistor
             { name = Printf.sprintf "rd%d_%d" i j; n1 = here;
               n2 = name i (j + 1); ohms = 130.0 });
      emit
        (El.Capacitor
           { name = Printf.sprintf "cg%d_%d" i j; n1 = here; n2 = "0";
             farads = 0.5e-12 })
    done
  done;
  emit
    (El.Vsource
       { name = "vin"; np = "emf"; nn = "0"; wave = C.Waveform.dc 0.0;
         ac_mag = 1.0 });
  emit (El.Resistor { name = "rsrc"; n1 = "emf"; n2 = name 0 0; ohms = 50.0 });
  let nl = C.Netlist.create !elems in
  let mna = Eng.Mna.build nl in
  let plan = Eng.Stamp_plan.build mna in
  let dc = Eng.Dc.solve_mna mna in
  let out = name (n_side - 1) (n_side - 1) in
  let out_slot = Eng.Mna.node_slot mna out in
  let dim = Eng.Mna.dim mna in
  let n_pts = 120 in
  let freqs = N.Sweep.logspace 1.0e6 1.0e9 n_pts in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* sparse AC sweep, sequential (a width-1 pool spawns no domains) *)
  let seq_pool = Eng.Pool.create ~jobs:1 () in
  ignore
    (Eng.Ac.sweep ~pool:seq_pool ~dc nl ~freqs:[| 1.0e6 |] ~nodes:[ out ])
  (* warm-up *);
  let seq, t_sparse =
    time (fun () -> Eng.Ac.sweep ~pool:seq_pool ~dc nl ~freqs ~nodes:[ out ])
  in
  (* dense reference on a subset of points, extrapolated *)
  let subset = [| 0; n_pts / 3; 2 * n_pts / 3; n_pts - 1 |] in
  let n_sub = float_of_int (Array.length subset) in
  let dense_at k =
    let omega = N.Units.two_pi *. freqs.(k) in
    let a, rhs = Eng.Ac.system_of_plan plan dc ~omega in
    N.Lu.Cplx.solve_matrix a rhs
  in
  let max_ac_err = ref 0.0 in
  let (), t_dense_sub =
    time (fun () ->
        Array.iter
          (fun k ->
            let x = dense_at k in
            let v_ref = x.(out_slot) in
            let v = List.assoc out seq.(k).Eng.Ac.values in
            let err =
              Complex.norm (Complex.sub v v_ref)
              /. Float.max (Complex.norm v_ref) 1e-300
            in
            max_ac_err := Float.max !max_ac_err err)
          subset)
  in
  let t_dense_est = t_dense_sub /. n_sub *. float_of_int n_pts in
  if !max_ac_err > 1e-9 then
    failwith "bench part5: sparse AC disagrees with the dense reference";
  (* parallel byte-identity *)
  let par =
    with_pool 4 (fun pool -> Eng.Ac.sweep ~pool ~dc nl ~freqs ~nodes:[ out ])
  in
  if not (seq = par) then
    failwith "bench part5: jobs=4 sweep differs from jobs=1";
  (* adjoint noise on the shared sparse factorization *)
  let noise_pts, t_noise =
    time (fun () ->
        Eng.Noise.analyze ~pool:seq_pool ~dc nl ~output:out ~freqs)
  in
  let noise_arr = Array.of_list noise_pts in
  (* dense adjoint baseline: materialized transpose + dense complex LU
     per point, exactly what the noise engine used to do *)
  let transpose m =
    let n = Array.length m in
    Array.init n (fun i -> Array.init n (fun j -> m.(j).(i)))
  in
  let e_out =
    Array.init dim (fun i ->
        if i = out_slot then Complex.one else Complex.zero)
  in
  let four_kt = 4.0 *. 1.380649e-23 *. 300.0 in
  let slot = Eng.Mna.node_slot mna in
  let dense_noise_at k =
    let omega = N.Units.two_pi *. freqs.(k) in
    let a, _ = Eng.Ac.system_of_plan plan dc ~omega in
    let y = N.Lu.Cplx.solve_matrix (transpose a) e_out in
    let g s = if s < 0 then Complex.zero else y.(s) in
    List.fold_left
      (fun acc e ->
        match e with
        | El.Resistor { n1; n2; ohms; _ } ->
          let h = Complex.sub (g (slot n1)) (g (slot n2)) in
          acc +. (Complex.norm2 h *. (four_kt /. ohms))
        | _ -> acc)
      0.0 (C.Netlist.elements nl)
  in
  let max_noise_err = ref 0.0 in
  let (), t_noise_dense_sub =
    time (fun () ->
        Array.iter
          (fun k ->
            let ref_psd = dense_noise_at k in
            let err =
              Float.abs (noise_arr.(k).Eng.Noise.total_psd -. ref_psd)
              /. Float.max ref_psd 1e-300
            in
            max_noise_err := Float.max !max_noise_err err)
          subset)
  in
  let t_noise_dense_est = t_noise_dense_sub /. n_sub *. float_of_int n_pts in
  if !max_noise_err > 1e-9 then
    failwith "bench part5: adjoint noise disagrees with the dense baseline";
  let ac_speedup = t_dense_est /. t_sparse in
  let noise_speedup = t_noise_dense_est /. t_noise in
  Format.fprintf fmt
    "%d unknowns, %d points@.ac sweep: sparse %.3f s, dense est %.1f s \
     (%.1fx), max rel err %.2e@.noise adjoint: sparse %.3f s, dense est \
     %.1f s (%.1fx), max rel err %.2e@."
    dim n_pts t_sparse t_dense_est ac_speedup !max_ac_err t_noise
    t_noise_dense_est noise_speedup !max_noise_err;
  let oc = open_out "BENCH_4.json" in
  Printf.fprintf oc
    "{\n\
    \  \"frequency_domain\": {\n\
    \    \"unknowns\": %d,\n\
    \    \"freq_points\": %d,\n\
    \    \"ac_sweep\": {\n\
    \      \"sparse_seconds\": %.6f,\n\
    \      \"dense_seconds_est\": %.6f,\n\
    \      \"speedup\": %.2f,\n\
    \      \"max_rel_err\": %.3e,\n\
    \      \"parallel_identical\": true\n\
    \    },\n\
    \    \"noise_adjoint\": {\n\
    \      \"sparse_seconds\": %.6f,\n\
    \      \"dense_seconds_est\": %.6f,\n\
    \      \"speedup\": %.2f,\n\
    \      \"max_rel_err\": %.3e\n\
    \    }\n\
    \  }\n\
     }\n"
    dim n_pts t_sparse t_dense_est ac_speedup !max_ac_err t_noise
    t_noise_dense_est noise_speedup !max_noise_err;
  close_out oc;
  Format.fprintf fmt "wrote frequency-domain probes to BENCH_4.json@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Part 6: substrate extraction at scale (BENCH_5.json)

   Wall time of the macromodel extraction versus lateral grid size,
   48^2 up to 512^2 surface cells (over a million FDM nodes at the
   top), multigrid-preconditioned CG against the direct star-mesh
   elimination.  Direct is measured only at the small sizes and
   power-law extrapolated past them (the same measured-subset idiom as
   part 5); the MG-CG column reports per-size CG iteration counts so
   the near-flat growth that makes the scaling possible is visible in
   the JSON.  A 2x2 tiled extraction runs cold then warm against a
   throwaway cache directory (warm must hit every tile and run zero
   CG iterations), jobs=1 vs jobs=4 byte-identity and small-grid
   agreement with the direct oracle are asserted, so "bench part6"
   doubles as a CI smoke gate.  "bench part6 small" trims the size
   ladder for CI. *)

let extraction_scaling () =
  banner "Part 6 - substrate extraction at scale (MG-CG, tiles, cache)";
  let module G = Sn_geometry in
  let module Sub = Sn_substrate in
  let module X = Sub.Extractor in
  let module Port = Sub.Port in
  let module Mac = Sub.Macromodel in
  let module N = Sn_numerics in
  let module Pool = Sn_engine.Pool in
  let small = Array.exists (String.equal "small") Sys.argv in
  let die = G.Rect.make 0.0 0.0 400.0 400.0 in
  let ports =
    [ Port.v ~name:"agg" ~kind:Port.Resistive
        [ G.Rect.make 40.0 40.0 120.0 120.0 ];
      Port.v ~name:"vic" ~kind:Port.Resistive
        [ G.Rect.make 280.0 280.0 360.0 360.0 ];
      Port.v ~name:"ring" ~kind:Port.Resistive
        [ G.Rect.make 40.0 280.0 120.0 360.0 ];
      Port.v ~name:"tap" ~kind:Port.Resistive
        [ G.Rect.make 280.0 40.0 360.0 120.0 ];
      Port.v ~name:"probe" ~kind:Port.Probe
        [ G.Rect.make 180.0 180.0 220.0 220.0 ] ]
  in
  let cfg n = { Sub.Grid.nx = n; ny = n; z_per_layer = Some [ 1; 1; 1; 1 ] } in
  let sizes = if small then [| 32; 48 |] else [| 48; 96; 128; 192; 256; 512 |] in
  let direct_limit = 96 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let entries = Array.make (Array.length sizes) "" in
  let mat_bits m =
    let np = N.Mat.rows m in
    Array.init (np * np) (fun k ->
        Int64.bits_of_float (N.Mat.get m (k / np) (k mod np)))
  in
  let max_rel_err a b =
    let ea = mat_bits a and eb = mat_bits b in
    let scale =
      Array.fold_left
        (fun m x -> Float.max m (Float.abs (Int64.float_of_bits x)))
        1e-300 ea
    in
    let worst = ref 0.0 in
    Array.iteri
      (fun k x ->
        worst :=
          Float.max !worst
            (Float.abs (Int64.float_of_bits x -. Int64.float_of_bits eb.(k))
            /. scale))
      ea;
    !worst
  in
  (* direct elimination measured at the small sizes; power-law fit in
     cell count extrapolates the rest *)
  let direct_measured = ref [] in
  let accuracy_err = ref 0.0 in
  Format.fprintf fmt "%8s %10s %12s %8s %6s %14s@." "grid" "cells"
    "mgcg (s)" "cg its" "mg lvl" "direct (s)";
  Array.iteri
    (fun k n ->
      let mg, t_mg =
        time (fun () -> X.extract ~config:(cfg n) ~tech:Sn_tech.Tech.imec018 ~die ports)
      in
      let st = Option.get (X.last_stats ()) in
      let cells = st.X.grid_cells in
      let direct_s, estimated =
        if n <= direct_limit then begin
          let dm, t_d =
            time (fun () ->
                Sub.Elimination.reduce_grid ~config:(cfg n)
                  ~tech:Sn_tech.Tech.imec018 ~die ports)
          in
          accuracy_err :=
            Float.max !accuracy_err
              (max_rel_err dm.Mac.conductance mg.Mac.conductance);
          direct_measured := (float_of_int cells, t_d) :: !direct_measured;
          (t_d, false)
        end
        else begin
          (* fit t = c * cells^alpha through the measured pairs *)
          let pairs = !direct_measured in
          let alpha, c =
            match pairs with
            | (c1, t1) :: _ ->
              let cn, tn = List.nth pairs (List.length pairs - 1) in
              let alpha =
                if List.length pairs > 1 && tn > 0.0 && t1 > 0.0 then
                  Float.max 1.0 (log (t1 /. tn) /. log (c1 /. cn))
                else 1.5
              in
              (alpha, t1 /. (c1 ** alpha))
            | [] -> (1.5, 1e-6)
          in
          (c *. (float_of_int cells ** alpha), true)
        end
      in
      Format.fprintf fmt "%5dx%-2d %10d %12.3f %8d %6d %11.2f%s@." n n cells
        t_mg st.X.cg_iterations_total st.X.mg_levels direct_s
        (if estimated then " est" else "");
      entries.(k) <-
        Printf.sprintf
          "      { \"nx\": %d, \"cells\": %d, \"mgcg_seconds\": %.6f, \
           \"cg_iterations\": %d, \"mg_levels\": %d, \
           \"direct_seconds\": %.6f, \"direct_estimated\": %b }"
          n cells t_mg st.X.cg_iterations_total st.X.mg_levels direct_s
          estimated;
      if k = Array.length sizes - 1 then begin
        let speedup = direct_s /. t_mg in
        Format.fprintf fmt
          "largest grid: MG-CG %.2f s vs direct%s %.1f s (%.1fx)@." t_mg
          (if estimated then " (est)" else "")
          direct_s speedup;
        if (not small) && speedup < 10.0 then
          failwith "bench part6: < 10x speedup over direct at largest grid"
      end)
    sizes;
  Format.fprintf fmt "small-grid agreement vs direct: max rel err %.2e@."
    !accuracy_err;
  if !accuracy_err > 1e-8 then
    failwith "bench part6: MG-CG disagrees with direct elimination";
  (* tiled extraction, cold vs warm cache *)
  let n_tiled = if small then 48 else 96 in
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "snoise_bench_cache_%d" (Unix.getpid ()))
  in
  if Sys.file_exists cache_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat cache_dir f))
      (Sys.readdir cache_dir);
  let cache = Sub.Cache.create ~dir:cache_dir in
  let run_tiled () =
    X.extract ~config:(cfg n_tiled) ~tiles:(2, 2) ~cache
      ~tech:Sn_tech.Tech.imec018 ~die ports
  in
  let cold, t_cold = time run_tiled in
  let st_cold = Option.get (X.last_stats ()) in
  let warm, t_warm = time run_tiled in
  let st_warm = Option.get (X.last_stats ()) in
  if st_cold.X.cache_hits <> 0 || st_cold.X.cache_misses <> st_cold.X.tiles
  then failwith "bench part6: cold cache counters off";
  if st_warm.X.cache_hits <> st_warm.X.tiles || st_warm.X.cache_misses <> 0
  then failwith "bench part6: warm cache missed a tile";
  if st_warm.X.cg_iterations_total <> 0 then
    failwith "bench part6: warm cache still ran CG";
  if mat_bits cold.Mac.conductance <> mat_bits warm.Mac.conductance then
    failwith "bench part6: warm cache result differs";
  Format.fprintf fmt
    "tiled %dx%d at %dx%d: cold %.3f s (%d tiles, %d interface nodes), \
     warm %.3f s (%d/%d hits, 0 CG iterations)@."
    2 2 n_tiled n_tiled t_cold st_cold.X.tiles st_cold.X.interface_nodes
    t_warm st_warm.X.cache_hits st_warm.X.tiles;
  (* worker-count determinism *)
  let n_par = if small then 48 else 96 in
  let run_par jobs =
    with_pool jobs (fun pool ->
        X.extract ~config:(cfg n_par) ~tiles:(2, 2) ~pool
          ~tech:Sn_tech.Tech.imec018 ~die ports)
  in
  let seq = run_par 1 in
  let par = run_par 4 in
  if mat_bits seq.Mac.conductance <> mat_bits par.Mac.conductance then
    failwith "bench part6: jobs=4 extraction differs from jobs=1";
  Format.fprintf fmt "jobs=1 vs jobs=4: byte-identical@.";
  let oc = open_out "BENCH_5.json" in
  Printf.fprintf oc
    "{\n\
    \  \"extraction_scaling\": {\n\
    \    \"ports\": %d,\n\
    \    \"small_mode\": %b,\n\
    \    \"grids\": [\n%s\n\
    \    ],\n\
    \    \"accuracy_max_rel_err\": %.3e,\n\
    \    \"tiled_cache\": {\n\
    \      \"grid_nx\": %d,\n\
    \      \"tiles\": %d,\n\
    \      \"interface_nodes\": %d,\n\
    \      \"cold_seconds\": %.6f,\n\
    \      \"warm_seconds\": %.6f,\n\
    \      \"warm_hits\": %d,\n\
    \      \"warm_cg_iterations\": %d,\n\
    \      \"warm_identical\": true\n\
    \    },\n\
    \    \"parallel_identical\": true\n\
    \  }\n\
     }\n"
    (List.length ports) small
    (String.concat ",\n" (Array.to_list entries))
    !accuracy_err n_tiled st_cold.X.tiles st_cold.X.interface_nodes t_cold
    t_warm st_warm.X.cache_hits st_warm.X.cg_iterations_total;
  close_out oc;
  Format.fprintf fmt "wrote extraction scaling to BENCH_5.json@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Part 8: resident service throughput (BENCH_6.json)

   The workload [snoise serve] exists for: the same deck requested
   over and over.  Cold serves every request with the plan cache
   cleared, so each one re-parses, re-lints, re-compiles and
   re-factorizes; warm serves hit the compiled plan, the memoized DC
   bias and the cached AC factorization.  The part also re-asserts the
   batching contract outside the unit tests: a drained batch of ac
   sweeps must be byte-identical to serving the same requests one at a
   time, at pool widths 1 and 4. *)

let serving_throughput () =
  banner "Part 8 - resident service: cold vs warm requests/s (BENCH_6.json)";
  let module Sv = Sn_server.Service in
  let module Pc = Sn_server.Plan_cache in
  let module J = Sn_server.Json in
  let small = Array.exists (String.equal "small") Sys.argv in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* an RC ladder big enough that compiling the deck (parse + lint +
     MNA + stamp plan + DC bias + AC factorization) dwarfs one warm
     three-point solve *)
  let stages = if small then 80 else 160 in
  let deck =
    let b = Buffer.create 8192 in
    Buffer.add_string b "* bench service RC ladder\n";
    Buffer.add_string b "v1 in 0 dc 1 ac 1\n";
    Buffer.add_string b "rin in n1 50\n";
    for k = 1 to stages do
      let n2 = if k = stages then "out" else Printf.sprintf "n%d" (k + 1) in
      Printf.bprintf b "r%d n%d %s %d\n" k k n2 (100 + k);
      Printf.bprintf b "c%d n%d 0 1e-12\n" k k
    done;
    Buffer.add_string b "rload out 0 1k\n.end\n";
    Buffer.contents b
  in
  let ac_line ?(id = 1) freqs =
    Printf.sprintf
      {|{"id": %d, "verb": "ac", "deck": %s, "params": {"freqs": %s, "nodes": ["out"]}}|}
      id
      (J.to_string (J.Str deck))
      freqs
  in
  let member name j =
    match J.member name j with
    | Some v -> v
    | None ->
      failwith
        (Printf.sprintf "bench part7: reply lacks %S: %s" name (J.to_string j))
  in
  let handle1 svc line =
    match Sv.handle svc ~client:1 line with
    | [ r ] ->
      (match J.member "error" r with
      | Some e ->
        failwith ("bench part7: request refused: " ^ J.to_string e)
      | None -> r)
    | rs ->
      failwith
        (Printf.sprintf "bench part7: expected 1 reply, got %d"
           (List.length rs))
  in
  let line = ac_line "[1e6, 5e6, 2e7]" in
  let svc = Sv.create () in
  (* cold: clear the cache before every request *)
  let n_cold = if small then 5 else 10 in
  let (), t_cold =
    time (fun () ->
        for _ = 1 to n_cold do
          Pc.clear (Sv.cache svc);
          ignore (handle1 svc line)
        done)
  in
  let cold_rps = float_of_int n_cold /. t_cold in
  (* warm: prime once, then serve from the caches *)
  ignore (handle1 svc line);
  let n_warm = if small then 50 else 200 in
  let last = ref J.Null in
  let (), t_warm =
    time (fun () ->
        for _ = 1 to n_warm do
          last := handle1 svc line
        done)
  in
  let warm_rps = float_of_int n_warm /. t_warm in
  (match member "plan" (member "served" !last) with
  | J.Str "hit" -> ()
  | other ->
    failwith
      ("bench part7: warm request missed the plan cache: "
      ^ J.to_string other));
  let speedup = warm_rps /. cold_rps in
  Format.fprintf fmt
    "%d-stage ladder: cold %8.1f req/s (%d reqs), warm %8.1f req/s (%d reqs) \
     -> %.1fx@."
    stages cold_rps n_cold warm_rps n_warm speedup;
  if (not small) && speedup < 10.0 then
    failwith "bench part7: warm serving < 10x cold";
  (* batching contract: drained batch byte-identical to one-at-a-time *)
  let freq_sets =
    [ "[1e6, 3e6]"; "[2e6]"; "[1e6, 5e6, 9e6]"; "[3e6, 2e6]" ]
  in
  let result_str reply = J.to_string (member "result" reply) in
  let batch_identical jobs =
    with_pool jobs (fun pool ->
        let options = { Flow.default_options with Flow.pool = Some pool } in
        let batched = Sv.create ~options () in
        List.iteri
          (fun i freqs ->
            match Sv.submit batched ~client:1 (ac_line ~id:i freqs) with
            | `Queued -> ()
            | _ -> failwith "bench part7: batch submit not queued")
          freq_sets;
        let batched_replies = List.map snd (Sv.drain batched) in
        let indiv = Sv.create ~options () in
        List.iteri
          (fun i freqs ->
            let b = List.nth batched_replies i in
            (match member "batched" (member "served" b) with
            | J.Num n when int_of_float n = List.length freq_sets -> ()
            | other ->
              failwith
                ("bench part7: batch not coalesced: " ^ J.to_string other));
            let s = handle1 indiv (ac_line ~id:i freqs) in
            if not (String.equal (result_str b) (result_str s)) then
              failwith
                (Printf.sprintf
                   "bench part7: batched reply %d differs at jobs=%d" i jobs))
          freq_sets)
  in
  batch_identical 1;
  batch_identical 4;
  Format.fprintf fmt
    "batched sweep (%d requests) byte-identical to sequential at jobs 1 and 4@."
    (List.length freq_sets);
  let oc = open_out "BENCH_6.json" in
  Printf.fprintf oc
    "{\n\
    \  \"resident_service\": {\n\
    \    \"deck_stages\": %d,\n\
    \    \"small_mode\": %b,\n\
    \    \"cold_requests\": %d,\n\
    \    \"warm_requests\": %d,\n\
    \    \"cold_rps\": %.3f,\n\
    \    \"warm_rps\": %.3f,\n\
    \    \"warm_over_cold\": %.2f,\n\
    \    \"batch\": {\n\
    \      \"requests\": %d,\n\
    \      \"jobs\": [1, 4],\n\
    \      \"byte_identical\": true\n\
    \    }\n\
    \  }\n\
     }\n"
    stages small n_cold n_warm cold_rps warm_rps speedup
    (List.length freq_sets);
  close_out oc;
  Format.fprintf fmt "wrote resident-service throughput to BENCH_6.json@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Part 9: cooperative-cancellation overhead (BENCH_7.json)

   The deadline machinery polls an ambient token at iteration
   boundaries of every long-running loop.  On the serving layer's hot
   path — a warm AC sweep over a compiled plan — that poll must be
   noise: this part times the same sweep with no token installed
   (disarmed, the production default) and with an unreachable-deadline
   token armed, and fails the run when the armed/disarmed ratio
   exceeds 1.05.  A second probe arms an already-expired deadline and
   checks that the sweep actually stops, with partial progress
   recorded — the other half of the contract. *)

let cancellation_overhead () =
  banner
    "Part 9 - cooperative cancellation: check overhead on the AC hot path \
     (BENCH_7.json)";
  let module N = Sn_numerics in
  let small = Array.exists (String.equal "small") Sys.argv in
  let stages = if small then 60 else 120 in
  let deck =
    let module El = Sn_circuit.Element in
    let node k = if k = 0 then "0" else Printf.sprintf "n%d" k in
    let elements =
      El.Vsource
        { name = "vin"; np = "in"; nn = "0";
          wave = Sn_circuit.Waveform.dc 1.0; ac_mag = 1.0 }
      :: El.Resistor { name = "rin"; n1 = "in"; n2 = node 1; ohms = 50.0 }
      :: El.Resistor
           { name = "rload"; n1 = node stages; n2 = "0"; ohms = 1000.0 }
      :: List.concat
           (List.init stages (fun k ->
                let k = k + 1 in
                [ El.Resistor
                    { name = Printf.sprintf "r%d" k; n1 = node k;
                      n2 = node (k + 1); ohms = 100.0 +. float_of_int k };
                  El.Capacitor
                    { name = Printf.sprintf "c%d" k; n1 = node k; n2 = "0";
                      farads = 1.0e-12 } ]))
    in
    Sn_circuit.Netlist.create ~title:"bench cancellation ladder" elements
  in
  let compiled = Flow.compile_deck ~lint:false deck in
  let acp = Flow.compiled_ac_plan compiled in
  let freqs =
    Array.init (if small then 64 else 256) (fun i ->
        1.0e6 *. (1.0 +. float_of_int i))
  in
  let nodes = [ Printf.sprintf "n%d" stages ] in
  (* pin the symbolic factorization before timing anything *)
  ignore (Sn_engine.Ac.sweep_plan acp ~freqs:[| 1.0e6 |] ~nodes);
  let time_sweep () =
    let t0 = Unix.gettimeofday () in
    ignore (Sn_engine.Ac.sweep_plan acp ~freqs ~nodes);
    Unix.gettimeofday () -. t0
  in
  (* min-of-N: the cleanest estimator for a fixed workload under
     scheduler noise *)
  let reps = if small then 5 else 9 in
  let min_of f =
    let best = ref infinity in
    for _ = 1 to reps do
      best := Float.min !best (f ())
    done;
    !best
  in
  let disarmed = min_of time_sweep in
  let far = N.Cancel.create ~deadline:(Unix.gettimeofday () +. 3600.0) () in
  let armed = min_of (fun () -> N.Cancel.with_token far time_sweep) in
  let ratio = armed /. disarmed in
  Format.fprintf fmt
    "%d-stage ladder, %d freqs: disarmed %.3f ms, armed %.3f ms -> ratio \
     %.3f@."
    stages (Array.length freqs) (disarmed *. 1.0e3) (armed *. 1.0e3) ratio;
  if (not small) && ratio > 1.05 then
    failwith
      (Printf.sprintf "bench part8: cancellation overhead %.3f > 1.05" ratio);
  (* the deadline actually fires: an expired token stops the sweep at
     an iteration boundary with partial progress recorded *)
  let expired = N.Cancel.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  let fired, progress =
    match
      N.Cancel.with_token expired (fun () ->
          Sn_engine.Ac.sweep_plan acp ~freqs ~nodes)
    with
    | _ -> (false, 0)
    | exception N.Cancel.Cancelled tok -> (true, N.Cancel.progress tok)
  in
  if not fired then failwith "bench part8: expired deadline did not cancel";
  Format.fprintf fmt
    "expired deadline cancelled the sweep after %d iteration(s)@." progress;
  let oc = open_out "BENCH_7.json" in
  Printf.fprintf oc
    "{\n\
    \  \"cancellation\": {\n\
    \    \"deck_stages\": %d,\n\
    \    \"freq_points\": %d,\n\
    \    \"small_mode\": %b,\n\
    \    \"reps\": %d,\n\
    \    \"disarmed_ms\": %.4f,\n\
    \    \"armed_ms\": %.4f,\n\
    \    \"overhead_ratio\": %.4f,\n\
    \    \"deadline_fires\": %b,\n\
    \    \"cancelled_after_iterations\": %d\n\
    \  }\n\
     }\n"
    stages (Array.length freqs) small reps (disarmed *. 1.0e3)
    (armed *. 1.0e3) ratio fired progress;
  close_out oc;
  Format.fprintf fmt "wrote cancellation overhead to BENCH_7.json@.";
  Format.pp_print_flush fmt ()

(* Part 10: PRIMA model-order reduction on the AC hot path (BENCH_8.json)

   The universal-macromodel claim of ISSUE 9: swapping a merged
   model's passive pool (an RC mesh standing in for the coupled
   interconnect bus, plus a real extracted substrate macromodel tying
   its corners through silicon) for its rank-k PRIMA realization must
   buy at least 5x on a warm AC sweep while tracking the exact port
   transfer to 1e-4 over the band — and stay byte-identical at jobs=1
   vs jobs=4, like every other parallel surface. *)

let reduction_speedup () =
  banner
    "Part 10 - PRIMA reduction: exact vs rank-k AC sweep (BENCH_8.json)";
  let module C = Sn_circuit in
  let module El = C.Element in
  let module Eng = Sn_engine in
  let module N = Sn_numerics in
  let module R = Snoise.Reduced_model in
  let small = Array.exists (String.equal "small") Sys.argv in
  let n_side = if small then 14 else 20 in
  let name i j = Printf.sprintf "n%d_%d" i j in
  let elems = ref [] in
  let emit e = elems := e :: !elems in
  (* the coupled passive pool: an RC mesh (resistive grid, ground
     capacitance per node) *)
  for i = 0 to n_side - 1 do
    for j = 0 to n_side - 1 do
      let here = name i j in
      if i < n_side - 1 then
        emit
          (El.Resistor
             { name = Printf.sprintf "rr%d_%d" i j; n1 = here;
               n2 = name (i + 1) j; ohms = 100.0 });
      if j < n_side - 1 then
        emit
          (El.Resistor
             { name = Printf.sprintf "rd%d_%d" i j; n1 = here;
               n2 = name i (j + 1); ohms = 130.0 });
      emit
        (El.Capacitor
           { name = Printf.sprintf "cg%d_%d" i j; n1 = here; n2 = "0";
             farads = 0.1e-12 })
    done
  done;
  (* a real extracted substrate macromodel, its ports named after the
     mesh corners so the silicon couplings join the same passive pool *)
  let corner_port nm rect =
    Sn_substrate.Port.v ~name:nm ~kind:Sn_substrate.Port.Resistive [ rect ]
  in
  let sub_die = Sn_geometry.Rect.make 0.0 0.0 60.0 60.0 in
  let macro =
    Sn_substrate.Extractor.extract
      ~config:{ Sn_substrate.Grid.nx = 12; ny = 12; z_per_layer = Some [ 1; 1; 1; 1 ] }
      ~tech:Sn_tech.Tech.imec018 ~die:sub_die
      [ corner_port (name 0 0) (Sn_geometry.Rect.make 5.0 5.0 15.0 15.0);
        corner_port (name 0 (n_side - 1))
          (Sn_geometry.Rect.make 45.0 5.0 55.0 15.0);
        corner_port (name (n_side - 1) 0)
          (Sn_geometry.Rect.make 5.0 45.0 15.0 55.0);
        corner_port
          (name (n_side - 1) (n_side - 1))
          (Sn_geometry.Rect.make 45.0 45.0 55.0 55.0) ]
  in
  List.iteri
    (fun k (p1, p2, ohms) ->
      emit
        (El.Resistor { name = Printf.sprintf "rsub%d" k; n1 = p1; n2 = p2; ohms }))
    (Sn_substrate.Macromodel.to_resistors macro);
  let out = name (n_side - 1) (n_side - 1) in
  emit
    (El.Vsource
       { name = "vin"; np = "emf"; nn = "0"; wave = C.Waveform.dc 0.0;
         ac_mag = 1.0 });
  emit (El.Resistor { name = "rsrc"; n1 = "emf"; n2 = name 0 0; ohms = 50.0 });
  let nl = C.Netlist.create ~title:"bench reduction mesh" !elems in
  let config =
    { R.default_config with R.order = R.Auto 1e-6; band = (1.0e6, 1.0e9) }
  in
  let t_build0 = Unix.gettimeofday () in
  let red, reduced = R.reduce_deck_certified ~config ~keep:[ out ] nl in
  let build_s = Unix.gettimeofday () -. t_build0 in
  let stats =
    match Option.bind reduced (fun (model, _) -> R.stats model) with
    | Some s -> s
    | None -> failwith "bench part9: reduction did not run"
  in
  let n_exact = List.length (C.Netlist.nodes nl) in
  let n_red = List.length (C.Netlist.nodes red) in
  Format.fprintf fmt
    "mesh %dx%d + 4-port substrate: %d nodes -> %d (rank %d, order %d, \
     build %.1f ms)@."
    n_side n_side n_exact n_red stats.R.rank stats.R.order
    (build_s *. 1.0e3);
  let n_pts = if small then 40 else 96 in
  let freqs = N.Sweep.logspace 1.0e6 1.0e9 n_pts in
  let dc_exact = Eng.Dc.solve nl and dc_red = Eng.Dc.solve red in
  let seq_pool = Eng.Pool.create ~jobs:1 () in
  let sweep ?(pool = seq_pool) ~dc deck =
    Eng.Ac.sweep ~pool ~dc deck ~freqs ~nodes:[ out ]
  in
  (* warm both paths before timing (symbolic factorization, plans) *)
  ignore (sweep ~dc:dc_exact nl);
  ignore (sweep ~dc:dc_red red);
  let reps = if small then 5 else 9 in
  let min_of f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t_exact = min_of (fun () -> sweep ~dc:dc_exact nl) in
  let t_red = min_of (fun () -> sweep ~dc:dc_red red) in
  let speedup = t_exact /. t_red in
  (* matched accuracy: pointwise port-transfer error over the band *)
  let pts_exact = sweep ~dc:dc_exact nl in
  let pts_red = sweep ~dc:dc_red red in
  let max_err = ref 0.0 in
  Array.iteri
    (fun k (pt : Eng.Ac.sweep_point) ->
      let ve = List.assoc out pt.Eng.Ac.values in
      let vr = List.assoc out pts_red.(k).Eng.Ac.values in
      let err =
        Complex.norm (Complex.sub ve vr)
        /. Float.max (Complex.norm ve) 1e-300
      in
      max_err := Float.max !max_err err)
    pts_exact;
  (* parallel byte-identity on the reduced path *)
  let pts_par = with_pool 4 (fun pool -> sweep ~pool ~dc:dc_red red) in
  let parallel_identical = pts_red = pts_par in
  Format.fprintf fmt
    "%d points: exact %.3f ms, reduced %.3f ms -> %.1fx, max rel err \
     %.2e@."
    n_pts (t_exact *. 1.0e3) (t_red *. 1.0e3) speedup !max_err;
  if !max_err > 1e-4 then
    failwith
      (Printf.sprintf "bench part9: transfer error %.2e > 1e-4" !max_err);
  if not parallel_identical then
    failwith "bench part9: jobs=4 reduced sweep differs from jobs=1";
  if (not small) && speedup < 5.0 then
    failwith
      (Printf.sprintf "bench part9: reduced sweep only %.1fx faster" speedup);
  let oc = open_out "BENCH_8.json" in
  Printf.fprintf oc
    "{\n\
    \  \"reduction\": {\n\
    \    \"mesh_side\": %d,\n\
    \    \"small_mode\": %b,\n\
    \    \"deck_nodes\": %d,\n\
    \    \"reduced_nodes\": %d,\n\
    \    \"ports\": %d,\n\
    \    \"internal\": %d,\n\
    \    \"rank\": %d,\n\
    \    \"order\": %d,\n\
    \    \"build_ms\": %.3f,\n\
    \    \"freq_points\": %d,\n\
    \    \"reps\": %d,\n\
    \    \"exact_ms\": %.4f,\n\
    \    \"reduced_ms\": %.4f,\n\
    \    \"speedup\": %.2f,\n\
    \    \"max_rel_err\": %.3e,\n\
    \    \"parallel_identical\": %b\n\
    \  }\n\
     }\n"
    n_side small n_exact n_red stats.R.ports stats.R.internal stats.R.rank
    stats.R.order (build_s *. 1.0e3) n_pts reps (t_exact *. 1.0e3)
    (t_red *. 1.0e3) speedup !max_err parallel_identical;
  close_out oc;
  Format.fprintf fmt "wrote reduction speedup to BENCH_8.json@.";
  Format.pp_print_flush fmt ()

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel microbenchmarks, one per table / figure *)

open Bechamel
open Toolkit

(* Fixture for the transient hot path: a linear RC ladder, sized past
   the assembler's dense/sparse crossover so the CSR refill + pattern-
   reusing LU is what gets measured. *)
let tran_ladder_netlist ~stages =
  let module El = Sn_circuit.Element in
  let module W = Sn_circuit.Waveform in
  let node k = if k = 0 then "0" else Printf.sprintf "n%d" k in
  let elements =
    El.Vsource
      { name = "vin"; np = "drive"; nn = "0";
        wave = W.sin_wave ~amplitude:1.0 ~freq:10.0e6 (); ac_mag = 1.0 }
    :: El.Resistor { name = "rin"; n1 = "drive"; n2 = node 1; ohms = 50.0 }
    :: List.concat
         (List.init stages (fun k ->
              let k = k + 1 in
              [ El.Resistor
                  { name = Printf.sprintf "r%d" k; n1 = node k;
                    n2 = node (k + 1); ohms = 100.0 +. float_of_int k };
                El.Capacitor
                  { name = Printf.sprintf "c%d" k; n1 = node k; n2 = "0";
                    farads = 1.0e-12 } ]))
  in
  Sn_circuit.Netlist.create ~title:"bench RC ladder" elements

(* ------------------------------------------------------------------ *)
(* Part 11: numerical pre-flight overhead (BENCH_9.json)

   The verify gate is static analysis only — analyzer rules,
   conditioning span, stiffness spectrum, pool passivity.  Its promise
   is to be nearly free next to the cold work it fronts: this part
   times [Flow.preflight] against the full cold path a served request
   pays (stamp-plan compile + DC bias + complex AC plan) on a mid-size
   RC ladder, and fails when pre-flight costs more than 5% of it. *)

let preflight_overhead () =
  banner
    "Part 11 - pre-flight overhead: static verify vs cold compile \
     (BENCH_9.json)";
  let small = Array.exists (String.equal "small") Sys.argv in
  let min_of reps f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let reps_pre = if small then 9 else 25 in
  (* the shipped example decks, plus the deck `snoise verify` defaults
     to: the merged VCO impact model (substrate + interconnect +
     linearized oscillator core).  The default chip intentionally
     leaves two nwell ports unbound, so that deck carries the matching
     suppressions.

     Each deck's cold path is what a cold request actually pays before
     a solve can be scheduled: for the example files, parse from disk
     plus stamp-plan compile, DC bias and the complex AC plan; for the
     merged VCO model, substrate + interconnect extraction (uncached —
     [build_vco] takes no tile cache) and the merge, then the same
     compile chain.  The pre-flight is the static pass the verify gate
     inserts ahead of that. *)
  let module A = Sn_analysis in
  let default_cfg = A.Analyzer.default in
  let vco_cfg =
    {
      default_cfg with
      A.Analyzer.ignores =
        [ ("unbound-port", Some "nwell:vdd_local");
          ("unbound-port", Some "nwell:vtune_w") ];
    }
  in
  let compile_chain nl =
    let cdeck = Flow.compile_deck ~lint:false nl in
    ignore (Flow.compiled_bias cdeck);
    ignore (Flow.compiled_ac_plan cdeck)
  in
  let build_merged_vco () =
    Flow.vco_merged (Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.45)
  in
  let decks =
    List.filter_map
      (fun path ->
        if Sys.file_exists path then
          Some
            ( Filename.basename path,
              Sn_circuit.Spice.load path,
              default_cfg,
              reps_pre,
              fun () -> compile_chain (Sn_circuit.Spice.load path) )
        else None)
      [ "examples/decks/clean_rc.sp"; "examples/decks/probe_divider.sp" ]
    @ [ ( "vco_merged",
          build_merged_vco (),
          vco_cfg,
          (if small then 1 else 3),
          fun () -> compile_chain (build_merged_vco ()) ) ]
  in
  if List.length decks < 3 then
    failwith "bench part10: shipped example decks not found (run from repo root)";
  let rows =
    List.map
      (fun (name, nl, config, reps_cold, cold) ->
        (* the gate itself must pass on every shipped deck *)
        if Flow.preflight_failing (Flow.preflight ~config nl) then
          failwith
            (Printf.sprintf "bench part10: deck %s does not verify clean" name);
        let t_pre = min_of reps_pre (fun () -> Flow.preflight ~config nl) in
        let t_cold = min_of reps_cold cold in
        Format.fprintf fmt
          "%-16s pre-flight %8.3f ms, cold compile %8.3f ms -> %5.1f%%@."
          name (t_pre *. 1.0e3) (t_cold *. 1.0e3)
          (100.0 *. t_pre /. t_cold);
        (name, t_pre, t_cold))
      decks
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let total_pre = sum (fun (_, p, _) -> p)
  and total_cold = sum (fun (_, _, c) -> c) in
  let ratio = total_pre /. total_cold in
  Format.fprintf fmt "shipped decks total: %.1f%% overhead@."
    (100.0 *. ratio);
  if ratio > 0.05 then
    failwith
      (Printf.sprintf "bench part10: pre-flight overhead %.1f%% > 5%%"
         (100.0 *. ratio));
  let oc = open_out "BENCH_9.json" in
  Printf.fprintf oc
    "{\n\
    \  \"preflight\": {\n\
    \    \"small_mode\": %b,\n\
    \    \"reps\": %d,\n\
    \    \"decks\": [\n\
     %s\n\
    \    ],\n\
    \    \"preflight_ms\": %.4f,\n\
    \    \"cold_compile_ms\": %.4f,\n\
    \    \"overhead_ratio\": %.4f\n\
    \  }\n\
     }\n"
    small reps_pre
    (String.concat ",\n"
       (List.map
          (fun (name, p, c) ->
            Printf.sprintf
              "      {\"deck\": %S, \"preflight_ms\": %.4f, \
               \"cold_compile_ms\": %.4f}"
              name (p *. 1.0e3) (c *. 1.0e3))
          rows))
    (total_pre *. 1.0e3) (total_cold *. 1.0e3) ratio;
  close_out oc;
  Format.fprintf fmt "wrote pre-flight overhead to BENCH_9.json@.";
  Format.pp_print_flush fmt ()

(* Fixture for direct elimination: a 48x48 surface mesh with four port
   regions — the network is rebuilt per run because elimination
   consumes it. *)
let elim_n = 48

let elim_edges, elim_ports =
  let n = elim_n in
  let idx x y = (y * n) + x in
  let edges = ref [] in
  for y = 0 to n - 1 do
    for x = 0 to n - 1 do
      if x + 1 < n then
        edges :=
          (idx x y, idx (x + 1) y, 1.0e-3 *. (1.0 +. (0.1 *. float_of_int y)))
          :: !edges;
      if y + 1 < n then
        edges :=
          (idx x y, idx x (y + 1), 1.3e-3 *. (1.0 +. (0.05 *. float_of_int x)))
          :: !edges
    done
  done;
  ( !edges,
    [| idx 3 3; idx (n - 4) 3; idx 3 (n - 4); idx (n - 4) (n - 4) |] )

let bench_tests () =
  (* shared fixtures built once *)
  let nmos_flow = Flow.build_nmos Sn_testchip.Nmos_structure.default in
  let vco_flow = Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.0 in
  let f_noise = E.default_f_noise in
  let h = Flow.vco_transfers vco_flow ~f_noise in
  let osc = Flow.vco_oscillator vco_flow in
  let small_grid =
    { Sn_substrate.Grid.nx = 24; ny = 24; z_per_layer = Some [ 1; 2; 2; 1 ] }
  in
  let layout = Sn_testchip.Nmos_structure.layout Sn_testchip.Nmos_structure.default in
  let merged = Flow.vco_merged vco_flow in
  let vco_dc = Sn_engine.Dc.solve merged in
  [
    Test.make ~name:"fig3_nmos_transfer"
      (Staged.stage (fun () ->
           ignore (Flow.nmos_transfer nmos_flow ~vgs:0.8 ~vds:0.8 ~freq:5.0e6)));
    Test.make ~name:"sec3_division_crossover"
      (Staged.stage (fun () -> ignore (Flow.nmos_divider nmos_flow)));
    Test.make ~name:"fig7_output_spectrum"
      (Staged.stage (fun () ->
           let beta, m_am =
             Sn_rf.Impact.total_modulation osc ~h:(h 10.0e6) ~a_noise:0.178
               ~f_noise:10.0e6
           in
           let samples =
             Sn_rf.Behavioral.synthesize ~carrier_freq:64.0e6
               ~amplitude:osc.Sn_rf.Impact.amplitude
               ~tones:[ { Sn_rf.Behavioral.f_noise = 10.0e6; beta; m_am } ]
               ~fs:320.0e6 ~n:16384
           in
           ignore
             (Sn_rf.Behavioral.measured_sideband_dbm samples ~fs:320.0e6
                ~carrier_freq:64.0e6 ~f_noise:10.0e6 `Upper)));
    Test.make ~name:"fig8_spur_vs_fnoise"
      (Staged.stage (fun () ->
           Array.iter
             (fun fn ->
               ignore
                 (Flow.vco_spur vco_flow ~h ~p_noise_dbm:(-5.0) ~f_noise:fn))
             f_noise));
    Test.make ~name:"fig9_contributions"
      (Staged.stage (fun () ->
           ignore (Flow.vco_spur vco_flow ~h ~p_noise_dbm:(-5.0) ~f_noise:10.0e6)));
    Test.make ~name:"fig10_ground_sizing"
      (Staged.stage (fun () ->
           ignore (Flow.vco_ground_wire_resistance vco_flow)));
    Test.make ~name:"vco_design_card"
      (Staged.stage (fun () ->
           let tank = Sn_rf.Tank.default_3ghz in
           let bias = Sn_rf.Tank.quiet_bias ~v_tune:0.45 in
           List.iter
             (fun e -> ignore (Sn_rf.Tank.sensitivity tank bias e))
             Sn_rf.Tank.
               [ Ground; Backgate; Pmos_well; Varactor_well; Inductor_node ]));
    Test.make ~name:"runtime_extraction_small_grid"
      (Staged.stage (fun () ->
           ignore
             (Sn_substrate.Extractor.extract_from_layout ~config:small_grid
                ~tech:Sn_tech.Tech.imec018 layout)));
    Test.make ~name:"runtime_simulation_ac_solve"
      (Staged.stage (fun () ->
           ignore (Sn_engine.Ac.solve ~dc:vco_dc merged ~freq:10.0e6)));
    (let nl = tran_ladder_netlist ~stages:80 in
     let options =
       { Sn_engine.Tran.default_options with
         Sn_engine.Tran.ic = Sn_engine.Tran.Uic [];
         record = Some [ "n80" ] }
     in
     Test.make ~name:"tran_fixed_step"
       (Staged.stage (fun () ->
            ignore
              (Sn_engine.Tran.simulate ~options ~tstop:2.0e-6 ~dt:1.0e-8 nl))));
    Test.make ~name:"substrate_elimination"
      (Staged.stage (fun () ->
           let module Elim = Sn_substrate.Elimination in
           let net =
             Elim.of_conductances ~n:(elim_n * elim_n) ~ports:elim_ports
               elim_edges
           in
           Elim.eliminate_internal net;
           ignore (Elim.port_conductance net)));
  ]

(* Machine-readable trajectory: benchmark name -> ns/run, so successive
   revisions can be diffed mechanically. *)
let emit_json ~path entries =
  let oc = open_out path in
  let n = List.length entries in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  %S: { \"ns_per_run\": %.3f }%s\n" name ns
        (if i = n - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc

let strip_group_prefix name =
  let prefix = "snoise " in
  let lp = String.length prefix in
  if String.length name > lp && String.sub name 0 lp = prefix then
    String.sub name lp (String.length name - lp)
  else name

let run_benchmarks () =
  banner "Part 2 - Bechamel microbenchmarks (one per table / figure)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let grouped =
    Test.make_grouped ~name:"snoise" ~fmt:"%s %s" (bench_tests ())
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.fprintf fmt "%-34s %16s@." "benchmark" "time/run";
  let json = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        json := (strip_group_prefix name, est) :: !json;
        let human =
          if est >= 1.0e9 then Printf.sprintf "%8.2f s " (est /. 1.0e9)
          else if est >= 1.0e6 then Printf.sprintf "%8.2f ms" (est /. 1.0e6)
          else if est >= 1.0e3 then Printf.sprintf "%8.2f us" (est /. 1.0e3)
          else Printf.sprintf "%8.0f ns" est
        in
        Format.fprintf fmt "%-34s %16s@." name human
      | _ -> Format.fprintf fmt "%-34s %16s@." name "n/a")
    results;
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !json
  in
  emit_json ~path:"BENCH_1.json" entries;
  Format.fprintf fmt "wrote %d benchmark entries to BENCH_1.json@."
    (List.length entries);
  Format.pp_print_flush fmt ()

let () =
  (* "bench part4" / "bench part5" run a single cheap part: the
     robustness-overhead probes and the frequency-domain engine smoke
     gate respectively *)
  if Array.exists (String.equal "part4") Sys.argv then rescue_overhead ()
  else if Array.exists (String.equal "part5") Sys.argv then
    frequency_domain ()
  else if Array.exists (String.equal "part6") Sys.argv then
    extraction_scaling ()
  else if Array.exists (String.equal "part7") Sys.argv then
    serving_throughput ()
  else if Array.exists (String.equal "part8") Sys.argv then
    cancellation_overhead ()
  else if Array.exists (String.equal "part9") Sys.argv then
    reduction_speedup ()
  else if Array.exists (String.equal "part10") Sys.argv then
    preflight_overhead ()
  else begin
    reproduce_all ();
    ablation_grid ();
    ablation_interconnect ();
    ablation_backplane ();
    ablation_corners ();
    sweep_scaling ();
    rescue_overhead ();
    frequency_domain ();
    extraction_scaling ();
    serving_throughput ();
    cancellation_overhead ();
    reduction_speedup ();
    preflight_overhead ();
    run_benchmarks ()
  end;
  Format.fprintf fmt "@.bench: done@.";
  Format.pp_print_flush fmt ()
