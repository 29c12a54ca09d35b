(* Guard-ring design study: how much isolation does a guard ring buy
   in a high-ohmic substrate, as a function of its width and of how it
   is grounded?  (The sobering answer for high-ohmic processes — rings
   help far less than designers hope, and a ring grounded through a
   resistive wire helps even less — is exactly why the paper's
   interconnect-aware methodology matters.)

   Run with:  dune exec examples/guard_ring_study.exe *)

module G = Sn_geometry
module L = Sn_layout
module Port = Sn_substrate.Port
module Extractor = Sn_substrate.Extractor
module Macromodel = Sn_substrate.Macromodel

let die = G.Rect.make 0.0 0.0 200.0 200.0

let ports ~ring_strip =
  let inject =
    Port.v ~name:"inj" ~kind:Port.Resistive [ G.Rect.make 20.0 90.0 40.0 110.0 ]
  in
  let victim =
    Port.v ~name:"vic" ~kind:Port.Probe [ G.Rect.make 150.0 90.0 170.0 110.0 ]
  in
  (* every configuration shares a grounded perimeter tap (the pad
     frame) so the noise current always has the same return path *)
  let frame =
    Port.v ~name:"frame" ~kind:Port.Resistive
      (Sn_testchip.Ring.rects
         ~center:(G.Point.v 100.0 100.0)
         ~inner_width:180.0 ~inner_height:180.0 ~strip:8.0)
  in
  match ring_strip with
  | None -> [ inject; victim; frame ]
  | Some strip ->
    let ring =
      Port.v ~name:"ring" ~kind:Port.Resistive
        (Sn_testchip.Ring.rects
           ~center:(G.Point.v 160.0 100.0)
           ~inner_width:50.0 ~inner_height:50.0 ~strip)
    in
    [ inject; victim; frame; ring ]

let config =
  { Sn_substrate.Grid.nx = 40; ny = 40; z_per_layer = Some [ 1; 3; 3; 2 ] }

let transfer ?(backplane = false) ~ring_strip ~grounded () =
  let m =
    Extractor.extract ~config ~grounded_backplane:backplane
      ~tech:Sn_tech.Tech.imec018 ~die (ports ~ring_strip)
  in
  Macromodel.divider m ~inject:"inj" ~sense:"vic" ~grounded

let db x = 20.0 *. log10 x

let () =
  Format.printf "== Guard ring design study (high-ohmic substrate) ==@.@.";
  Format.printf
    "Aggressor contact at 130 um from a victim device; 20 ohm cm bulk.@.@.";
  (* every configuration is an independent extraction: fan the whole
     study out as one parallel sweep over the scenario list *)
  let scenarios =
    (`Bare, None, false, [ "frame" ])
    :: List.map
         (fun strip -> (`Ring strip, Some strip, false, [ "frame"; "ring" ]))
         [ 2.0; 5.0; 10.0; 20.0 ]
    @ [
        (`Floating, Some 10.0, false, [ "frame" ]);
        (`Plated, Some 10.0, true, [ "frame"; "ring"; "backplane" ]);
      ]
  in
  let results =
    Sn_engine.Pool.map_list (Sn_engine.Pool.default ())
      (fun (tag, ring_strip, backplane, grounded) ->
        (tag, transfer ~backplane ~ring_strip ~grounded ()))
      scenarios
  in
  let find tag = List.assoc tag results in
  let bare = find `Bare in
  Format.printf "  %-44s %8.1f dB@." "no ring" (db bare);
  List.iter
    (fun (tag, d) ->
      match tag with
      | `Ring strip ->
        Format.printf "  %-44s %8.1f dB  (%+.1f dB)@."
          (Printf.sprintf "%g um ring around the victim, ideal ground" strip)
          (db d)
          (db d -. db bare)
      | _ -> ())
    results;
  (* a ring is only as good as its ground *)
  let floating = find `Floating in
  Format.printf "  %-44s %8.1f dB  (%+.1f dB)@." "10 um ring left floating"
    (db floating)
    (db floating -. db bare);
  let plated = find `Plated in
  Format.printf "  %-44s %8.1f dB  (%+.1f dB)@."
    "10 um ring + grounded backside metallization" (db plated)
    (db plated -. db bare);
  Format.printf
    "@.Takeaways for this high-ohmic floorplan:@.\
     - making the ring wider buys almost nothing (the noise dives@.\
       under any surface ring: 2 um and 20 um are within 3 dB);@.\
     - the ring works mostly as a relay to the nearby grounded pad@.\
       frame - even a floating ring helps here because it couples the@.\
       victim region to that ground (move the frame away and the@.\
       floating ring collapses);@.\
     - an (idealized, zero-impedance) backside metallization adds@.\
       little: 500 um of 20 ohm cm bulk separates it from the surface@.\
       where the noise travels.@.\
     Width is not the lever - the quality of the ring's ground is,@.\
     which is the paper's interconnect-resistance point.@."
