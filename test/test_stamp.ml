(* Engine output pinned to the bit.  One inline deck carries every
   stamp kind (R, C, varactor, L, V, I, G, E and an NMOS with its bulk
   tied to its source); the DC unknowns, an AC sweep, a noise analysis
   and four transients over it are printed as hexadecimal floats and
   digested.  Any change to where or in which order a stamp lands that
   moves a single output bit changes a digest. *)

module C = Sn_circuit
module E = C.Element
module Dc = Sn_engine.Dc
module Ac = Sn_engine.Ac
module Noise = Sn_engine.Noise
module Tran = Sn_engine.Tran

let every_kind_deck =
  {|.title every stamp kind
.model nch nmos
.model vdio varactor
vdd vdd 0 1.8
vin in 0 dc 0.8 ac 1 sin(0.8 0.05 50meg)
rd vdd d 2k
m1 d in s s nch W=20u L=0.5u
rs s 0 100
ri in a 500
ca a t 0.5p
cd d 0 0.2p
l1 d t 20n
rt t 0 5k
yt t 0 vdio
ib vdd t dc 20u ac 1m
g1 o 0 t 0 1m
ro o 0 1k
e1 e 0 d 0 0.5
re e o 2k
.end
|}

let deck = lazy (C.Spice.of_string every_kind_deck)

(* the linear part of the deck (no MOSFET, no varactor): the
   transient's linear fast path runs on it *)
let linear_deck =
  lazy
    (let nl = Lazy.force deck in
     C.Netlist.create ~title:"linear part"
       (List.filter
          (function E.Mosfet _ | E.Varactor _ -> false | _ -> true)
          (C.Netlist.elements nl)))

let digest strings = Digest.to_hex (Digest.string (String.concat "," strings))
let hex = Printf.sprintf "%h"

let dc_digest () =
  digest
    (List.map hex (Array.to_list (Dc.unknowns (Dc.solve (Lazy.force deck)))))

let ac_digest () =
  let nl = Lazy.force deck in
  let nodes =
    Array.to_list (Sn_engine.Mna.node_names (Sn_engine.Mna.build nl))
  in
  Ac.sweep nl ~freqs:[| 1e6; 1e8; 3e9 |] ~nodes
  |> Array.to_list
  |> List.concat_map (fun (p : Ac.sweep_point) ->
         List.concat_map
           (fun (n, (v : Complex.t)) ->
             [ n; hex v.Complex.re; hex v.Complex.im ])
           p.Ac.values)
  |> digest

let noise_digest () =
  Noise.analyze (Lazy.force deck) ~output:"o" ~freqs:[| 1e6; 1e8 |]
  |> List.concat_map (fun (p : Noise.point) ->
         hex p.Noise.total_psd
         :: List.concat_map
              (fun (c : Noise.contribution) ->
                [ c.Noise.element; hex c.Noise.psd ])
              p.Noise.contributions)
  |> digest

let tran_digest nl method_ =
  let d =
    Tran.simulate
      ~options:{ Tran.default_options with Tran.method_ }
      ~tstop:20e-9 ~dt:0.25e-9 (Lazy.force nl)
  in
  Alcotest.(check bool) "complete" true (d.Tran.truncated = None);
  digest
    (List.map hex (Array.to_list d.Tran.times)
     @ List.concat_map
         (fun w -> List.map hex (Array.to_list w))
         (Array.to_list d.Tran.data))

let test_bits_pinned () =
  List.iter
    (fun (what, expected, digest) ->
      Alcotest.(check string) what expected (digest ()))
    [ ("dc unknowns", "b204e061682051ca1cc022ac838f92f4", dc_digest);
      ("ac at 3 frequencies", "e8b89353efaf705c1ebbc854336dc001", ac_digest);
      ("noise at 2 frequencies", "d9f99b77b979559cb302d9d3a60144fe",
       noise_digest);
      ("tran BE, Newton", "e58df08b60929e01915fb96e2f127fdb",
       fun () -> tran_digest deck Tran.Backward_euler);
      ("tran trap, Newton", "6358f33f158c150c1a0c2d5bf818793b",
       fun () -> tran_digest deck Tran.Trapezoidal);
      ("tran BE, linear fast path", "4efb12b6405979a371fd8816c52a35df",
       fun () -> tran_digest linear_deck Tran.Backward_euler);
      ("tran trap, linear fast path", "da9d32fb46a8540b3320933d21f6de43",
       fun () -> tran_digest linear_deck Tran.Trapezoidal) ]

(* The analyzer's structural patterns against the assemblies they
   describe: every position [dc_pattern] reports must be one the DC
   assembler records, and every position [ac_pattern] reports one the
   compiled AC plan holds.  Run over the shipped and test decks, the
   inline deck above and the merged VCO. *)
let test_patterns_within_assemblies () =
  let module P = Sn_engine.Stamp_plan in
  let module A = Sn_engine.Assembler in
  let check name pattern holds =
    Array.iteri
      (fun i cols ->
        Array.iter
          (fun j ->
            if not (holds i j) then
              Alcotest.failf "%s: pattern position (%d, %d) is never stamped"
                name i j)
          cols)
      pattern.P.pat_adj
  in
  let decks =
    Test_analysis.all_decks ()
    |> List.map (fun path -> (path, C.Spice.load path))
  in
  Alcotest.(check bool) "found the deck corpus" true (List.length decks >= 4);
  List.iter
    (fun (name, nl) ->
      let plan = P.build (Sn_engine.Mna.build nl) in
      let zeros = Array.make (P.dim plan) 0.0 in
      (* crossover 0: the assembler records every stamp event *)
      let asm = A.create ~crossover:0 (P.dim plan) in
      Dc.assemble_plan plan asm (Array.copy zeros) zeros
        ~source:(fun _ _ -> 0.0) ~gmin:Dc.default_options.Dc.gmin;
      let recorded = Hashtbl.create 64 in
      (match asm.A.mode with
       | A.Collect { ci; cj; _ } ->
         for k = 0 to Sn_numerics.Dyn.I.length ci - 1 do
           Hashtbl.replace recorded
             (Sn_numerics.Dyn.I.get ci k, Sn_numerics.Dyn.I.get cj k)
             ()
         done
       | A.Dense _ | A.Refill _ -> Alcotest.fail "assembler not recording");
      check (name ^ " dc") (P.dc_pattern plan) (fun i j ->
          Hashtbl.mem recorded (i, j));
      let acp = Sn_engine.Ac_plan.compile plan zeros in
      check (name ^ " ac") (P.ac_pattern plan) (fun i j ->
          Sn_numerics.Sparse.index acp.Sn_engine.Ac_plan.pattern i j >= 0))
    (("inline deck", Lazy.force deck)
     :: ("merged VCO", fst (Lazy.force Test_engine.vco_fixture))
     :: decks)

let suites =
  [
    ( "engine.stamp",
      [
        Alcotest.test_case "every output bit pinned" `Quick test_bits_pinned;
        Alcotest.test_case "patterns within the assemblies" `Quick
          test_patterns_within_assemblies;
      ]
    );
  ]
