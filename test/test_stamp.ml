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
      ("ac at 3 frequencies", "83fa85d4af86a3c20dba12d7cebed766", ac_digest);
      ("noise at 2 frequencies", "0e77b62b9b47055748c343c2f3b5e76d",
       noise_digest);
      ("tran BE, Newton", "58d65f4294e0615d55b1abb14728796d",
       fun () -> tran_digest deck Tran.Backward_euler);
      ("tran trap, Newton", "47d0a5491b5bbae75b8da9cf81e7aeeb",
       fun () -> tran_digest deck Tran.Trapezoidal);
      ("tran BE, linear fast path", "7cd322299144abb5d50316e99ca8747f",
       fun () -> tran_digest linear_deck Tran.Backward_euler);
      ("tran trap, linear fast path", "390289ce8355c4ffdcf02ea79fe0007e",
       fun () -> tran_digest linear_deck Tran.Trapezoidal) ]

(* The decks the stamp-rule checks run over: the inline deck above,
   the merged VCO and every shipped and test deck. *)
let deck_corpus () =
  let files = Test_analysis.all_decks () in
  Alcotest.(check bool) "found the deck corpus" true (List.length files >= 4);
  ("inline deck", Lazy.force deck)
  :: ("merged VCO", fst (Lazy.force Test_engine.vco_fixture))
  :: List.map (fun path -> (path, C.Spice.load path)) files

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
  List.iter
    (fun (name, nl) ->
      let plan = P.build (Sn_engine.Mna.build nl) in
      let zeros = Array.make (P.dim plan) 0.0 in
      (* before its first solve the assembler records every stamp event *)
      let asm = A.create (P.dim plan) in
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
       | A.Refill _ -> Alcotest.fail "assembler not recording");
      check (name ^ " dc") (P.dc_pattern plan) (fun i j ->
          Hashtbl.mem recorded (i, j));
      let acp = Sn_engine.Ac_plan.compile plan zeros in
      check (name ^ " ac") (P.ac_pattern plan) (fun i j ->
          Sn_numerics.Sparse.index acp.Sn_engine.Ac_plan.pattern i j >= 0))
    (deck_corpus ())

(* Cards whose stamps cancel in part or whole: a VCCS with both
   controls on one node and one with both outputs on one node, an R, a
   C and an L strapped across a single node, and a MOSFET with its
   drain on its source. *)
let cancelling_deck =
  {|.title cancelling cards
.model nch nmos
v1 x 0 1.0
r1 x y 1k
r2 y 0 1k
g1 y 0 x x 1m
g2 y y x 0 1m
r3 y y 1k
c1 x x 1p
l1 y y 1n
m1 y x y 0 nch W=10u L=0.5u
.end
|}

(* [Stamp_plan.numeric_profile] walks the netlist with its own copy of
   which node rows each card fills.  Here it is held to the stamp rule:
   the node rows the profile attributes to a card are exactly the node
   rows that card's own stamps fill through [Stamp_plan.stamp], with
   the signed unit weights cancelling within each stamp group as in the
   structural pattern.  Cards map to plan elements in netlist order; a
   MOSFET owns its channel stamp and the four device capacitors that
   follow it. *)
let test_profile_matches_stamps () =
  let module P = Sn_engine.Stamp_plan in
  let reactive s = function
    | P.Capacitor { i; j; _ } | P.Varactor { i; j; _ } ->
      P.admittance s.P.add i j 1.0
    | P.Inductor { b; _ } -> s.P.add b b 1.0
    | _ -> ()
  in
  let stamped_rows plan elts =
    let rows = ref [] in
    List.iter
      (fun e ->
        let local = Hashtbl.create 8 in
        let add i j v =
          if i >= 0 && j >= 0 then
            Hashtbl.replace local (i, j)
              (v +. Option.value ~default:0.0 (Hashtbl.find_opt local (i, j)))
        in
        P.stamp { P.add; inject = (fun _ _ -> ()) } ~lin:P.Units
          ~source:(fun _ _ -> 0.0) ~reactive e;
        Hashtbl.iter
          (fun (i, _) v ->
            if v <> 0.0 && i < P.n_nodes plan then rows := i :: !rows)
          local)
      elts;
    List.sort_uniq compare !rows
  in
  let check_deck deck nl =
    let plan = P.build (Sn_engine.Mna.build nl) in
    let prof = P.numeric_profile plan in
    let profile_rows name =
      List.filter
        (fun s ->
          List.exists
            (fun (w : P.node_weight) -> String.equal w.P.nw_elt name)
            prof.P.prof_weights.(s))
        (List.init prof.P.prof_nodes Fun.id)
    in
    let rest =
      List.fold_left
        (fun elts card ->
          let own = match card with E.Mosfet _ -> 5 | _ -> 1 in
          let mine = List.filteri (fun k _ -> k < own) elts in
          let name = E.name card in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s rows" deck name)
            (stamped_rows plan mine) (profile_rows name);
          List.filteri (fun k _ -> k >= own) elts)
        (Array.to_list plan.P.elts) (C.Netlist.elements nl)
    in
    Alcotest.(check int) (deck ^ ": every plan element owned") 0
      (List.length rest)
  in
  List.iter
    (fun (deck, nl) -> check_deck deck nl)
    (("cancelling cards", C.Spice.of_string cancelling_deck) :: deck_corpus ())

let suites =
  [
    ( "engine.stamp",
      [
        Alcotest.test_case "every output bit pinned" `Quick test_bits_pinned;
        Alcotest.test_case "patterns within the assemblies" `Quick
          test_patterns_within_assemblies;
        Alcotest.test_case "numeric profile matches stamps" `Quick
          test_profile_matches_stamps;
      ]
    );
  ]
