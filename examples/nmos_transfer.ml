(* The paper's section-3 validation experiment: inject a tone into the
   substrate next to the four-transistor NMOS measurement structure
   and compare the simulated transfer to the back-gate hand
   calculation (divider x gmb / gds).

   Run with:  dune exec examples/nmos_transfer.exe *)

module Flow = Snoise.Flow
module NS = Sn_testchip.Nmos_structure

let () =
  Format.printf "== NMOS measurement structure (paper Fig. 3) ==@.@.";
  let params = NS.default in
  Format.printf "Building the structure and extracting models...@.";
  let flow = Flow.build_nmos params in

  Format.printf "  ground wire (MOS GR -> pad): %.2f ohm@."
    (Flow.nmos_ground_wire_resistance flow);
  let divider = Flow.nmos_divider flow in
  Format.printf "  SUB -> back-gate division: 1/%.0f   (paper: 1/652)@.@."
    (1.0 /. divider);

  Format.printf "Bias sweep (vgs = vds, tone at 5 MHz):@.";
  Format.printf "  %6s %10s %10s %10s %10s@." "vgs" "gmb[mS]" "gds[mS]"
    "sim[dB]" "hand[dB]";
  List.iter
    (fun (vgs, vds) ->
      let p = Flow.nmos_transfer flow ~divider ~vgs ~vds ~freq:5.0e6 in
      Format.printf "  %6.2f %10.1f %10.1f %10.1f %10.1f@." vgs
        (1.0e3 *. p.Flow.gmb_total)
        (1.0e3 *. p.Flow.gds_total)
        p.Flow.transfer_sim_db p.Flow.transfer_hand_db)
    NS.bias_sweep;

  (* the ablation that motivates the whole paper: re-run the flow the
     "classical" way, with ideal (zero-resistance) interconnect *)
  Format.printf "@.Classical-flow ablation (interconnect R ignored):@.";
  let flow0 =
    Flow.build_nmos
      ~options:
        { Flow.default_options with Flow.interconnect_resistance = false }
      params
  in
  let d0 = Flow.nmos_divider flow0 in
  Format.printf
    "  division collapses to 1/%.0f - the wire resistance raises the@."
    (1.0 /. d0);
  Format.printf
    "  coupled noise by %.1fx (paper: almost a factor of two).@."
    (divider /. d0)
