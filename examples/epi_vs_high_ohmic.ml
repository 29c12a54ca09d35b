(* Why the paper keeps saying "high-ohmic": compare substrate coupling
   versus separation distance on the paper's 20 ohm cm wafer and on an
   epitaxial (p- epi over p+ bulk) wafer.

   On the high-ohmic wafer, distance buys isolation.  On the epi
   wafer, the heavily doped bulk a few micrometers down behaves as a
   single node: moving the victim away barely helps, and only a
   backside contact does.

   Run with:  dune exec examples/epi_vs_high_ohmic.exe *)

module G = Sn_geometry
module Port = Sn_substrate.Port
module Extractor = Sn_substrate.Extractor
module Macromodel = Sn_substrate.Macromodel

let die = G.Rect.make 0.0 0.0 300.0 300.0

let config =
  { Sn_substrate.Grid.nx = 40; ny = 40; z_per_layer = Some [ 1; 2; 3; 2 ] }

let coupling ?(backplane = false) ~tech ~distance () =
  let inject =
    Port.v ~name:"inj" ~kind:Port.Resistive
      [ G.Rect.make 20.0 140.0 40.0 160.0 ]
  in
  let victim =
    Port.v ~name:"vic" ~kind:Port.Probe
      [ G.Rect.make (40.0 +. distance) 140.0 (60.0 +. distance) 160.0 ]
  in
  let tap =
    Port.v ~name:"tap" ~kind:Port.Resistive
      [ G.Rect.make 140.0 20.0 160.0 40.0 ]
  in
  let m =
    Extractor.extract ~config ~grounded_backplane:backplane ~tech ~die
      [ inject; victim; tap ]
  in
  let grounded = if backplane then [ "tap"; "backplane" ] else [ "tap" ] in
  20.0 *. log10 (Macromodel.divider m ~inject:"inj" ~sense:"vic" ~grounded)

let () =
  Format.printf "== Epi vs high-ohmic substrate coupling ==@.@.";
  Format.printf "Aggressor -> victim transfer (dB) vs edge separation:@.@.";
  Format.printf "  %10s %14s %14s@." "distance" "high-ohmic" "epi (p+ bulk)";
  (* the (wafer x distance) grid: eight independent extractions, all
     pool tasks of one sweep *)
  let distances = [ 20.0; 60.0; 120.0; 200.0 ] in
  let results =
    List.concat_map
      (fun tech -> List.map (fun d -> (tech, d)) distances)
      [ Sn_tech.Tech.imec018; Sn_tech.Tech.epi018 ]
    |> Sn_engine.Pool.map_list (Sn_engine.Pool.default ())
         (fun (tech, distance) -> (tech, distance, coupling ~tech ~distance ()))
  in
  let value tech d =
    let _, _, v = List.find (fun (t, x, _) -> t == tech && x = d) results in
    v
  in
  List.iter
    (fun d ->
      Format.printf "  %7.0f um %14.1f %14.1f@." d
        (value Sn_tech.Tech.imec018 d)
        (value Sn_tech.Tech.epi018 d))
    distances;
  let epi_open = coupling ~tech:Sn_tech.Tech.epi018 ~distance:120.0 () in
  let epi_plated =
    coupling ~backplane:true ~tech:Sn_tech.Tech.epi018 ~distance:120.0 ()
  in
  Format.printf
    "@.epi wafer at 120 um: open backside %.1f dB, grounded backside %.1f dB@."
    epi_open epi_plated;
  Format.printf
    "@.Distance helps on the high-ohmic wafer but saturates almost@.\
     immediately on the epi wafer (the p+ bulk is one node); on epi@.\
     only the backside contact restores isolation.  This is why the@.\
     paper's high-ohmic substrate makes layout detail - like the@.\
     ground interconnect resistance - decisive.@."
