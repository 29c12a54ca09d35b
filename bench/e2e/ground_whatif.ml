(* ground_whatif: the paper's Fig. 10 question asked over and over —
   "what if the ground wire were w times wider?" — on a warm tile
   cache.  Widening metal does not touch the substrate, so every
   extraction is one cache hit with 0 CG iterations; assembly, the
   cache lookup, interconnect extraction, lint, DC and AC carry the
   time.  A multigrid speed-up should show no change here.

   Set-up warms the cache the way the CLI's --cache-dir does, with a
   cold build at w = 2.0 that also serves as the reference: every
   w = 2.0 iteration must reproduce its spur curve. *)

module Flow = Snoise.Flow
module Merge = Snoise.Merge
module X = Sn_substrate.Extractor
module Itc = Sn_interconnect
module Tc = Sn_testchip
module Netlist = Sn_circuit.Netlist

let params = Tc.Vco_chip.default
let vtune = 0.45
let p_noise_dbm = Snoise.Experiments.paper_noise_dbm
let f_noise = Sn_numerics.Sweep.logspace 1.0e5 15.0e6 64

let options w = { Flow.default_options with Flow.widen_ground = Some w }

let spur_curve flow h =
  Array.map
    (fun f ->
      let s = Flow.vco_spur flow ~h ~p_noise_dbm ~f_noise:f in
      (s.Sn_rf.Impact.lower_dbm, s.Sn_rf.Impact.upper_dbm))
    f_noise

(* [Flow.build_vco] rebuilt from the public calls, one span per layer,
   so the traced run can attribute the opaque build.  Its merged deck
   must equal the flow's. *)
let replica w =
  let o = options w in
  let layout =
    Trace.span "layout" (fun () ->
        Itc.Extract.widen_net ~net:"vss" ~factor:w (Tc.Vco_chip.layout params))
  in
  let report =
    Trace.span "interconnect" (fun () ->
        Itc.Extract.extract
          ~options:
            { Itc.Extract.default_options with
              Itc.Extract.include_resistance = o.Flow.interconnect_resistance;
              substrate_node = "backgate:sub_ind" }
          ~tech:o.Flow.tech layout)
  in
  Trace.add "interconnect.wires" (float_of_int report.Itc.Extract.wires_extracted);
  let macro =
    Trace.span "substrate" (fun () ->
        X.extract_from_layout ~config:o.Flow.grid ~tiles:o.Flow.tiles
          ~tech:o.Flow.tech layout)
  in
  ignore (Harness.record_extraction ());
  let merged =
    Trace.span "merge" (fun () ->
        Netlist.create ~title:"vco merged impact model"
          (Netlist.elements (Tc.Vco_chip.circuit params ~vtune)
          @ [ Sn_circuit.Element.Resistor
                { name = "rframe"; n1 = "frame"; n2 = "0"; ohms = 0.2 } ]
          @ Merge.of_macromodel macro
          @ Merge.of_rc_netlist report.Itc.Extract.netlist))
  in
  Trace.add "merge.elements" (float_of_int (Netlist.element_count merged));
  Trace.span "analysis" (fun () -> Flow.lint_gate merged);
  let compiled =
    Trace.span "engine.compile" (fun () -> Flow.compile_deck ~lint:false merged)
  in
  let dc = Trace.span "engine.dc" (fun () -> Flow.compiled_bias compiled) in
  Trace.add "engine.dc_attempts" (float_of_int (List.length (Sn_engine.Dc.attempts dc)));
  (merged, compiled)

let transfer_nodes =
  List.sort_uniq String.compare
    (List.map snd Tc.Vco_chip.sensitive_nodes @ [ "sub_inject" ])

let setup ~seed ~rep =
  let dir = Host.fresh_dir (Printf.sprintf "ground_whatif-%d" rep) in
  Sn_substrate.Cache.set_default_dir (Some dir);
  let reference =
    let flow = Flow.build_vco ~options:(options 2.0) params ~vtune in
    spur_curve flow (Flow.vco_transfers flow ~f_noise)
  in
  let rng = Random.State.make [| seed |] in
  let iterate i =
    let w = if i mod 8 = 0 then 2.0 else 1.0 +. Random.State.float rng 3.0 in
    let (flow, stats, curve), outcome =
      Harness.timed (fun () ->
          let flow =
            Trace.span "flow.build_vco" (fun () ->
                Flow.build_vco ~options:(options w) params ~vtune)
          in
          let stats = X.last_stats () in
          let h = Trace.span "flow.transfers" (fun () -> Flow.vco_transfers flow ~f_noise) in
          let curve = Trace.span "flow.spur" (fun () -> spur_curve flow h) in
          (flow, stats, curve))
    in
    Harness.checked outcome (fun () ->
        (match stats with
         | Some st ->
           Harness.check
             (st.X.cg_iterations_total = 0 && st.X.cache_hits = 1 && st.X.cache_misses = 0)
             "w = %g: %d CG iterations, %d hits, %d misses (want 0, 1, 0)" w
             st.X.cg_iterations_total st.X.cache_hits st.X.cache_misses
         | None -> Harness.fail "w = %g: no extraction statistics" w);
        Array.iteri
          (fun k (lo, up) ->
            Harness.check (Float.is_finite lo && Float.is_finite up)
              "w = %g: spur at %g Hz is not finite" w f_noise.(k);
            if w = 2.0 then begin
              let rlo, rup = reference.(k) in
              Harness.check
                (Float.abs (lo -. rlo) <= 1e-9 && Float.abs (up -. rup) <= 1e-9)
                "w = 2: spur at %g Hz is %.12g/%.12g dBm, cold build %.12g/%.12g"
                f_noise.(k) lo up rlo rup
            end)
          curve;
        if !Trace.enabled then begin
          let t0 = Trace.now () in
          let merged, compiled = Trace.span "flow.replica" (fun () -> replica w) in
          let replica_s = Trace.now () -. t0 in
          let build_s =
            List.fold_left
              (fun acc (s : Trace.span) ->
                if s.key = "flow.build_vco" then acc +. Trace.duration s else acc)
              0.0 !Trace.pending
          in
          Trace.set "trace.replica_coverage" (replica_s /. build_s);
          Harness.check
            (Netlist.elements merged = Netlist.elements (Flow.vco_merged flow))
            "w = %g: replica's merged deck differs from Flow.vco_merged" w;
          let t0 = Trace.now () in
          ignore
            (Trace.span "engine.ac" (fun () ->
                 Sn_engine.Ac.sweep_plan (Flow.compiled_ac_plan compiled)
                   ~freqs:f_noise ~nodes:transfer_nodes));
          Trace.set "engine.ac_us_per_point"
            ((Trace.now () -. t0) *. 1e6 /. float_of_int (Array.length f_noise))
        end)
  in
  let teardown () =
    Sn_substrate.Cache.set_default_dir None;
    Host.rm_rf dir
  in
  { Harness.iterate; finish = ignore; teardown }

let workload = { Harness.name = "ground_whatif"; warmup = 10; setup }
