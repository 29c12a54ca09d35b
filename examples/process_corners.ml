(* Process-corner sign-off: how much does the substrate-noise spur
   move across technology variation?  This is the "mixed-signal chip
   verification and sign-off" use the paper's conclusion points to.

   Run with:  dune exec examples/process_corners.exe *)

module Corners = Snoise.Corners

let () =
  Format.printf "== Process corners: VCO spur at fc + 10 MHz ==@.@.";
  (* Corners.vco_spread runs one flow per corner on the shared pool
     (Snoise.Sweep.corners) — width picked by SNOISE_JOBS *)
  Format.printf "  evaluating %d corners on %d worker(s)@.@."
    (List.length Corners.corners_3sigma)
    (Sn_engine.Pool.jobs (Sn_engine.Pool.default ()));
  let results = Corners.vco_spread () in
  Format.printf "  %-12s %10s %10s %10s %8s | %12s %10s@." "corner"
    "bulk rho" "sheet R" "contact R" "well C" "spur [dBm]" "fc [GHz]";
  List.iter
    (fun (r : Corners.vco_corner_result) ->
      let c = r.Corners.corner in
      Format.printf "  %-12s %9.1fx %9.1fx %9.1fx %7.1fx | %12.1f %10.2f@."
        c.Corners.name c.Corners.bulk_resistivity c.Corners.sheet_resistance
        c.Corners.contact_resistance c.Corners.well_capacitance
        r.Corners.spur_at_10mhz_dbm r.Corners.carrier_ghz)
    results;
  Format.printf "@.spur spread across corners: %.1f dB@."
    (Corners.spread_db results);
  Format.printf
    "@.A designer signing off substrate-noise immunity needs the@.\
     worst corner, not the nominal one - the resistive-worst corner@.\
     (low-ohmic bulk + resistive metal) dominates, consistent with@.\
     the paper's resistive-coupling mechanism.@."
