(* Design exploration beyond the paper's Figure 10: sweep the ground
   interconnect width scaling factor and watch the spur fall toward
   the residual floor set by the fixed resistances (probe, strap) —
   quantifying how much a designer can buy with metal.

   Run with:  dune exec examples/ground_wire_sizing.exe *)

module Flow = Snoise.Flow
module Pool = Sn_engine.Pool
module Impact = Sn_rf.Impact

let f_noise = 10.0e6

let spur_at factor =
  let options =
    match factor with
    | 1.0 -> Flow.default_options
    | f -> { Flow.default_options with Flow.widen_ground = Some f }
  in
  let flow = Flow.build_vco ~options Sn_testchip.Vco_chip.default ~vtune:0.0 in
  let h = Flow.vco_transfers flow ~f_noise:[| f_noise |] in
  let s = Flow.vco_spur flow ~h ~p_noise_dbm:(-5.0) ~f_noise in
  (Flow.vco_ground_wire_resistance flow, s.Impact.upper_dbm)

let () =
  Format.printf "== Ground wire sizing (paper Fig. 10, extended) ==@.@.";
  Format.printf
    "Spur at fc + 10 MHz, -5 dBm substrate tone, Vtune = 0 (%d jobs):@.@."
    (Pool.jobs (Pool.default ()));
  Format.printf "  %8s %12s %12s %14s@." "width x" "wire R" "spur [dBm]"
    "vs normal [dB]";
  (* every width is an independent extraction + impact run: one sweep
     point each, fanned out over the pool *)
  let results =
    Pool.map_list (Pool.default ())
      (fun factor -> (factor, spur_at factor))
      [ 1.0; 1.5; 2.0; 3.0; 5.0 ]
  in
  let base = match results with (_, (_, dbm)) :: _ -> dbm | [] -> 0.0 in
  List.iteri
    (fun i (factor, (r, dbm)) ->
      if i = 0 then Format.printf "  %8.1f %9.2f ohm %12.1f %14s@." factor r dbm "-"
      else
        Format.printf "  %8.1f %9.2f ohm %12.1f %14.2f@." factor r dbm
          (base -. dbm))
    results;
  Format.printf
    "@.Doubling the width buys ~4.5 dB (the paper's prediction); the@.\
     returns diminish as the fixed probe and strap resistances start@.\
     to dominate the analog ground bounce.@."
