(* Numerical pre-flight: predictive soundness of the static
   conditioning / stiffness analyses against the dynamic engine, the
   passivity-certificate lifecycle, and the verify surfaces (Flow
   preflight, plan-cache verification). *)

module C = Sn_circuit
module E = C.Element
module A = Sn_analysis
module Nu = A.Numeric
module N = Sn_numerics
module R = Snoise.Reduced_model

open Helpers

let ctx nl = A.Rule.context nl

(* ------------------------------------------------------------------ *)
(* conditioning: the static span names the node the LU pivot dies at *)

(* current drive on purpose: a voltage source's branch row provides
   pivot fill that can rescue the cancelled node, hiding exactly the
   failure the analysis predicts *)
let illcond_deck big =
  C.Netlist.create
    [ i "i1" "0" "a" 1.0e-3; r "rbig" "a" "b" (1.0 /. big); r "r2" "b" "0" 1.0 ]

let test_conditioning_predicts_pivot () =
  (* a suite of spans at and beyond the underflow point; every dynamic
     singular pivot must land on a statically named node, and at least
     one deck must actually fail dynamically (the property is not
     allowed to be vacuous) *)
  let dynamic_failures = ref 0 in
  List.iter
    (fun big ->
      let nl = illcond_deck big in
      let spans = Nu.conditioning (ctx nl) in
      Alcotest.(check bool)
        (Printf.sprintf "span flagged at %g" big)
        true (spans <> []);
      let static_nodes = List.map (fun s -> s.Nu.sp_node) spans in
      match
        Option.map Test_analysis.unknown_name
          (Option.join (singular_pivot_of nl))
      with
      | None -> ()
      | Some unknown ->
        incr dynamic_failures;
        Alcotest.(check bool)
          (Printf.sprintf "static pass named %s (span %g)" unknown big)
          true
          (List.mem unknown static_nodes))
    [ 1.0e16; 1.0e17; 1.0e18; 1.0e20 ];
  Alcotest.(check bool)
    "at least one deck fails dynamically" true (!dynamic_failures > 0)

let test_conditioning_clean_deck_silent () =
  let nl =
    C.Netlist.create
      [ v "v1" "in" "0" 1.0; r "r1" "in" "out" 1.0e3; r "r2" "out" "0" 1.0e3 ]
  in
  Alcotest.(check int) "no spans" 0 (List.length (Nu.conditioning (ctx nl)))

(* ------------------------------------------------------------------ *)
(* stiffness: the static ratio predicts transient step truncation and
   the suggested dt avoids it *)

let stiff_deck =
  C.Netlist.create
    [
      v "v1" "in" "0" 1.0;
      r "rfast" "in" "f" 1.0;
      c "cfast" "f" "0" 1.0e-15;
      r "rslow" "in" "s" 1.0e8;
      c "cslow" "s" "0" 1.0e-4;
    ]

let test_stiffness_names_extremes () =
  match Nu.stiffness (ctx stiff_deck) with
  | None -> Alcotest.fail "stiff deck has no stiffness estimate"
  | Some st ->
    Alcotest.(check string) "fast node" "f" st.Nu.st_fast_node;
    Alcotest.(check string) "slow node" "s" st.Nu.st_slow_node;
    Alcotest.(check bool)
      "ratio beyond the limit" true
      (st.Nu.st_ratio > Nu.stiffness_limit);
    Alcotest.(check bool)
      "rule fires on the fast node" true
      (List.exists
         (fun (d : A.Rule.diagnostic) ->
           d.A.Rule.code = "stiff-transient"
           && d.A.Rule.subject = A.Rule.Node "f")
         (A.Analyzer.analyze stiff_deck).A.Analyzer.diagnostics)

let test_stiffness_dt_bound_sound () =
  (* integrating at the suggested bound resolves the fast mode: the
     fast node must settle to the divider value within a few tau *)
  match Nu.stiffness (ctx stiff_deck) with
  | None -> Alcotest.fail "no stiffness estimate"
  | Some st ->
    let module T = Sn_engine.Tran in
    (* start from 0 V so the fast mode actually has to settle *)
    let options = { T.default_options with T.ic = T.Uic [] } in
    let ds =
      T.simulate ~options ~tstop:(20.0 *. st.Nu.st_fast_tau) ~dt:st.Nu.st_dt
        stiff_deck
    in
    Alcotest.(check bool) "untruncated at suggested dt" true
      (ds.T.truncated = None);
    let wave = T.node ds "f" in
    let vf = wave.(Array.length wave - 1) in
    Alcotest.(check bool)
      (Printf.sprintf "fast node settled (v = %g)" vf)
      true
      (Float.abs (vf -. 1.0) < 1.0e-3)

(* ------------------------------------------------------------------ *)
(* passivity certificates: QCheck — a randomly de-passivated pencil
   never earns a certificate, and a certificate never transfers *)

let random_psd st n =
  let a =
    N.Mat.init n n (fun _ _ -> QCheck.Gen.float_range (-2.0) 2.0 st)
  in
  (* A Aᵀ + eps I: PSD with a definite margin *)
  let m =
    Sn_oracle.Dense.mul a (N.Mat.init n n (fun i j -> N.Mat.get a j i))
  in
  for i = 0 to n - 1 do
    N.Mat.set m i i (N.Mat.get m i i +. 1.0e-6)
  done;
  m

let depassivate st m =
  let n = N.Mat.rows m in
  let k = QCheck.Gen.int_range 0 (n - 1) st in
  let trace = ref 0.0 in
  for i = 0 to n - 1 do
    trace := !trace +. N.Mat.get m i i
  done;
  let m' = N.Mat.init n n (fun i j -> N.Mat.get m i j) in
  N.Mat.set m' k k (N.Mat.get m k k -. (2.0 *. Float.max !trace 1.0));
  m'

let prop_no_certificate_for_depassivated =
  QCheck.Test.make ~count:200
    ~name:"depassivated pencil never certifies; certificates don't transfer"
    QCheck.(make Gen.(pair (int_range 2 8) (int_bound 1_000_000)))
    (fun (n, seed) ->
      let st = Random.State.make [| seed; n |] in
      let m = random_psd st n in
      let bad = depassivate st m in
      match N.Passivity.certify ~context:"qcheck" m with
      | None -> false (* a PSD matrix with margin must certify *)
      | Some cert ->
        N.Passivity.certify ~context:"qcheck" bad = None
        && N.Passivity.verify ~context:"qcheck" m cert
        && not (N.Passivity.verify ~context:"qcheck" bad cert)
        && not (N.Passivity.verify ~context:"other" m cert))

(* ------------------------------------------------------------------ *)
(* reduced-model certificates ride the deck rewrite *)

let ladder_deck =
  (* a passive ladder with internal nodes for the reduction to
     eliminate; i1/o1 stay as ports via the active elements *)
  C.Netlist.create
    [
      v "v1" "i1" "0" 1.0;
      r "rl" "o1" "0" 50.0;
      r "p1" "i1" "m1" 10.0;
      c "pc1" "m1" "0" 1.0e-12;
      r "p2" "m1" "m2" 10.0;
      c "pc2" "m2" "0" 1.0e-12;
      r "p3" "m2" "o1" 10.0;
    ]

let reduce_config = { R.default_config with R.order = R.Fixed 1 }

let test_reduce_deck_certified () =
  match R.reduce_deck_certified ~config:reduce_config ladder_deck with
  | _, None -> Alcotest.fail "ladder deck did not reduce"
  | nl', Some (model, cert) ->
    Alcotest.(check bool) "rewrite happened" true (nl' != ladder_deck);
    (match cert with
    | None -> Alcotest.fail "healthy reduction must certify"
    | Some cert ->
      Alcotest.(check bool) "certificate verifies" true
        (R.verify_certificate model cert);
      (* a certificate from a different model must not transfer *)
      let other_deck =
        C.Netlist.create
          (C.Netlist.elements ladder_deck
          |> List.map (function
               | E.Resistor ({ name = "p2"; _ } as rr) ->
                 E.Resistor { rr with ohms = 11.0 }
               | e -> e))
      in
      (match R.reduce_deck_certified ~config:reduce_config other_deck with
      | _, Some (other, _) ->
        Alcotest.(check bool) "no cross-model verification" false
          (R.verify_certificate other cert)
      | _ -> Alcotest.fail "perturbed deck did not reduce"))

(* ------------------------------------------------------------------ *)
(* Flow.preflight: the verify gate end to end *)

let test_preflight_clean () =
  let nl =
    C.Netlist.create
      [ v "v1" "in" "0" 1.0; r "r1" "in" "out" 1.0e3; r "r2" "out" "0" 1.0e3 ]
  in
  let p = Snoise.Flow.preflight nl in
  Alcotest.(check bool) "not failing" false (Snoise.Flow.preflight_failing p);
  Alcotest.(check int) "no spans" 0 (List.length p.Snoise.Flow.pf_spans);
  Alcotest.(check int) "no pool defects" 0
    (List.length p.Snoise.Flow.pf_pool);
  Alcotest.(check bool) "no reduction configured" true
    (p.Snoise.Flow.pf_reduction = Snoise.Flow.Not_reduced)

(* every shipped example deck, and the merged VCO impact model that
   `snoise verify` checks by default, passes the verify gate *)
let test_shipped_decks_verify () =
  let dir = Filename.concat ".." "examples/decks" in
  let decks =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sp")
    |> List.sort String.compare
    |> List.map (fun f -> (f, C.Spice.load (Filename.concat dir f)))
  in
  Alcotest.(check bool) "example decks found" true (List.length decks >= 2);
  let vco =
    Snoise.Flow.vco_merged
      (Snoise.Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.45)
  in
  List.iter
    (fun (name, nl) ->
      Alcotest.(check bool) (name ^ " verifies") false
        (Snoise.Flow.preflight_failing (Snoise.Flow.preflight nl)))
    (decks @ [ ("merged VCO", vco) ])

let test_preflight_fails_on_warning () =
  let p = Snoise.Flow.preflight (illcond_deck 1.0e20) in
  Alcotest.(check bool) "warnings refuse verify" true
    (Snoise.Flow.preflight_failing p)

let test_preflight_reduction_certified () =
  let p = Snoise.Flow.preflight ~reduce:reduce_config ladder_deck in
  Alcotest.(check bool) "reduction certified" true
    (p.Snoise.Flow.pf_reduction = Snoise.Flow.Certified)

(* ------------------------------------------------------------------ *)
(* non-passive pool: static error names the offending node *)

let test_pool_defect_named () =
  let nl =
    C.Netlist.create
      [
        v "v1" "p" "0" 1.0;
        r "red_g0" "p" "0" (-0.5);
        r "red_g1" "p" "x" 1.0;
        r "red_g2" "x" "0" 1.0;
      ]
  in
  match Nu.pool_passivity (ctx nl) with
  | [] -> Alcotest.fail "indefinite pool not detected"
  | d :: _ ->
    Alcotest.(check string) "worst pivot at p" "p" d.Nu.pd_node;
    Alcotest.(check bool) "conductance pencil" true
      (d.Nu.pd_pencil = `Conductance);
    let report = A.Analyzer.analyze nl in
    Alcotest.(check bool) "non-passive-pool is error severity" true
      (List.exists
         (fun (d : A.Rule.diagnostic) -> d.A.Rule.code = "non-passive-pool")
         (A.Analyzer.errors report))

let suites =
  [
    ( "preflight.conditioning",
      [
        Alcotest.test_case "predicts the singular pivot" `Quick
          test_conditioning_predicts_pivot;
        Alcotest.test_case "clean deck is silent" `Quick
          test_conditioning_clean_deck_silent;
      ] );
    ( "preflight.stiffness",
      [
        Alcotest.test_case "names the extreme nodes" `Quick
          test_stiffness_names_extremes;
        Alcotest.test_case "suggested dt bound is sound" `Quick
          test_stiffness_dt_bound_sound;
      ] );
    ( "preflight.certificates",
      [
        QCheck_alcotest.to_alcotest prop_no_certificate_for_depassivated;
        Alcotest.test_case "reduce_deck_certified round trip" `Quick
          test_reduce_deck_certified;
      ] );
    ( "preflight.flow",
      [
        Alcotest.test_case "clean deck verifies" `Quick test_preflight_clean;
        Alcotest.test_case "shipped decks verify" `Slow
          test_shipped_decks_verify;
        Alcotest.test_case "warnings refuse" `Quick
          test_preflight_fails_on_warning;
        Alcotest.test_case "configured reduction certifies" `Quick
          test_preflight_reduction_certified;
        Alcotest.test_case "pool defect named" `Quick test_pool_defect_named;
      ] );
  ]
