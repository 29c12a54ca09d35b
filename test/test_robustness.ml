(* Tests for the convergence-rescue ladder, structured diagnostics,
   fault injection and fault-tolerant sweeps. *)

module C = Sn_circuit
module E = C.Element
module W = C.Waveform
module M = C.Mos_model
module Dc = Sn_engine.Dc
module Tran = Sn_engine.Tran
module Diag = Sn_engine.Diag
module Fault = Sn_engine.Fault
module Mna = Sn_engine.Mna

let check_close tol = Alcotest.(check (float tol))

(* naive substring search, enough for asserting rendered output *)
let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec at i = i + m <= n && (String.sub s i m = affix || at (i + 1)) in
  at 0

let r name n1 n2 ohms = E.Resistor { name; n1; n2; ohms }
let c name n1 n2 farads = E.Capacitor { name; n1; n2; farads }
let vdc name np nn v = E.Vsource { name; np; nn; wave = W.dc v; ac_mag = 0.0 }

let with_fault site spec f =
  Fault.arm site spec;
  Fun.protect ~finally:Fault.disarm f

let divider =
  [ vdc "v1" "in" "0" 10.0; r "r1" "in" "mid" 1000.0;
    r "r2" "mid" "0" 3000.0 ]

let diode_nmos =
  [ vdc "vdd" "vdd" "0" 1.8;
    r "rd" "vdd" "d" 1000.0;
    E.Mosfet { name = "m1"; drain = "d"; gate = "d"; source = "0";
               bulk = "0"; model = M.default_nmos; w = 10e-6; l = 1e-6;
               mult = 1 } ]

(* Two ideal sources fighting over one node: structurally singular,
   and no rescue rung can fix it. *)
let vsource_clash =
  [ vdc "v1" "in" "0" 1.0; vdc "v2" "in" "0" 2.0; r "r1" "in" "0" 1000.0 ]

(* ------------------------------------------------------------------ *)
(* rescue ladder *)

let test_healthy_trace () =
  let s = Dc.solve (C.Netlist.create divider) in
  match Dc.attempts s with
  | [ { Diag.rung = Diag.Plain_newton; converged = true; _ } ] -> ()
  | l ->
    Alcotest.failf "expected one converged plain-newton attempt, got %d"
      (List.length l)

(* A damping clamp far smaller than the supply makes every cold-start
   rung exhaust its budget (the unknowns must crawl 1.8 V in 0.05 V
   clamped updates), while source stepping only ever has to cover one
   0.09 V ramp increment per warm-started sub-step. *)
let tight_options =
  { Dc.default_options with max_iterations = 8; damping = 0.05;
    tolerance = 1e-6 }

let test_source_stepping_rescue () =
  let nl = C.Netlist.create diode_nmos in
  let s = Dc.solve ~options:tight_options nl in
  let attempts = Dc.attempts s in
  let rungs = List.map (fun a -> a.Diag.rung) attempts in
  Alcotest.(check bool)
    "reached source stepping" true
    (List.mem Diag.Source_stepping rungs);
  List.iter
    (fun (a : Diag.attempt) ->
      match a.Diag.rung with
      | Diag.Plain_newton | Diag.Damped_newton | Diag.Gmin_stepping ->
        Alcotest.(check bool)
          (Diag.rung_name a.Diag.rung ^ " failed") false a.Diag.converged
      | Diag.Source_stepping ->
        Alcotest.(check bool) "source stepping converged" true
          a.Diag.converged
      | Diag.Pseudo_transient ->
        Alcotest.fail "pseudo-transient should not have been reached")
    attempts;
  (* the rescued answer agrees with the unconstrained solve *)
  let ref_s = Dc.solve nl in
  check_close 1e-4 "rescued vd" (Dc.voltage ref_s "d") (Dc.voltage s "d")

let test_ladder_exhausted_diagnostic () =
  let nl =
    C.Netlist.create diode_nmos
  in
  (* no rungs beyond a plain attempt that cannot move far enough *)
  let options =
    { tight_options with ladder = [ Diag.Plain_newton ] }
  in
  match Dc.solve ~options nl with
  | _ -> Alcotest.fail "expected Diag.Error"
  | exception Diag.Error (Diag.No_convergence { worst; attempts; _ }) ->
    Alcotest.(check int) "one attempt recorded" 1 (List.length attempts);
    (match worst with
     | Some (Diag.Node _) -> ()
     | _ -> Alcotest.fail "expected a named worst node")
  | exception Diag.Error d ->
    Alcotest.failf "unexpected diagnostic: %s" (Diag.to_string d)

let test_singular_pivot_names_element () =
  match Dc.solve (C.Netlist.create vsource_clash) with
  | _ -> Alcotest.fail "expected Diag.Error"
  | exception Diag.Error (Diag.Singular_pivot { unknown; _ }) -> (
    match unknown with
    | Some (Diag.Branch b) ->
      Alcotest.(check bool)
        (Printf.sprintf "pivot names a clashing source (got %s)" b)
        true
        (b = "v1" || b = "v2")
    | u ->
      Alcotest.failf "expected a branch name, got %s"
        (match u with
         | Some (Diag.Node n) -> "node " ^ n
         | Some (Diag.Branch _) -> assert false
         | None -> "none"))
  | exception Diag.Error d ->
    Alcotest.failf "unexpected diagnostic: %s" (Diag.to_string d)

let test_injected_dc_fault_transparent () =
  let nl = C.Netlist.create diode_nmos in
  let clean = Dc.solve nl in
  with_fault Fault.Dc_attempt Fault.First_in_scope (fun () ->
      let s = Dc.solve nl in
      (* the injected failure of the plain attempt is visible in the
         trace but not in the answer *)
      (match Dc.attempts s with
       | { Diag.rung = Diag.Plain_newton; converged = false; iterations = 0 }
         :: { Diag.rung = Diag.Damped_newton; converged = true; _ } :: _ ->
         ()
       | _ -> Alcotest.fail "expected injected plain failure, damped rescue");
      check_close 1e-6 "same vd" (Dc.voltage clean "d") (Dc.voltage s "d");
      check_close 1e-6 "same vdd" (Dc.voltage clean "vdd")
        (Dc.voltage s "vdd"))

(* ------------------------------------------------------------------ *)
(* transient backoff *)

let rc_charge =
  [ vdc "v1" "in" "0" 1.0; r "r1" "in" "out" 1000.0; c "c1" "out" "0" 1e-6 ]

let rc_options = { Tran.default_options with ic = Tran.Uic [] }

let test_tran_backoff_recovers () =
  let nl = C.Netlist.create rc_charge in
  let tstop = 2e-3 and dt = 1e-4 in
  let clean = Tran.simulate ~options:rc_options ~tstop ~dt nl in
  with_fault Fault.Tran_solve (Fault.Nth 8) (fun () ->
      let d = Tran.simulate ~options:rc_options ~tstop ~dt nl in
      Alcotest.(check bool) "not truncated" true (d.Tran.truncated = None);
      Alcotest.(check int) "full waveform" (Array.length clean.Tran.times)
        (Array.length d.Tran.times);
      let v = Tran.node d "out" and v_ref = Tran.node clean "out" in
      Array.iteri
        (fun k x -> check_close 1e-3 (Printf.sprintf "v(out) at %d" k)
            v_ref.(k) x)
        v)

(* max_newton = 0 fails every solve at every substep size: the run
   must stop early with a truncation diagnostic instead of raising. *)
let unsolvable_options =
  { rc_options with max_newton = 0; linear_fast_path = false;
    max_step_retries = 2 }

let test_tran_truncation () =
  let nl = C.Netlist.create rc_charge in
  let d = Tran.simulate ~options:unsolvable_options ~tstop:1e-3 ~dt:1e-4 nl in
  (match d.Tran.truncated with
   | Some (Diag.Step_truncated { retries; completed_points; _ }) ->
     Alcotest.(check int) "retries exhausted" 2 retries;
     Alcotest.(check int) "only the initial point" 1 completed_points
   | Some other ->
     Alcotest.failf "unexpected diagnostic: %s" (Diag.to_string other)
   | None -> Alcotest.fail "expected a truncated dataset");
  Alcotest.(check int) "times truncated" 1 (Array.length d.Tran.times)

(* The sparse frequency-domain path carries the same typed diagnostics
   as the dense one: a singular complex pivot maps back to the named
   unknown (vsource_clash is linear, so any bias vector compiles the
   same plan; crossover 0 forces the Gilbert-Peierls kernel). *)
let test_ac_sparse_singular_names_branch () =
  let module Ac_plan = Sn_engine.Ac_plan in
  let module Sp = Sn_engine.Stamp_plan in
  let nl = C.Netlist.create vsource_clash in
  let mna = Mna.build nl in
  let plan = Sp.build mna in
  let acp = Ac_plan.compile ~crossover:0 plan (Array.make (Mna.dim mna) 0.0) in
  match Ac_plan.ensure_master acp ~freq:1.0e6 with
  | () -> Alcotest.fail "expected a singular pivot"
  | exception
      Diag.Error
        (Diag.Singular_pivot { unknown = Some (Diag.Branch b); loc; _ }) ->
    Alcotest.(check bool) "named source" true (b = "v1" || b = "v2");
    Alcotest.(check string) "analysis" "ac" loc.Diag.analysis;
    Alcotest.(check (option (float 0.0))) "frequency" (Some 1.0e6)
      loc.Diag.freq
  | exception Diag.Error d ->
    Alcotest.failf "expected a named singular pivot, got %s" (Diag.to_string d)

(* The injected-fault site covers the new frequency-domain factor: with
   the operating point precomputed (so the DC assembler does not consume
   the fault), the first AC factorization reports the sentinel pivot. *)
let test_injected_ac_fault_diagnostic () =
  let nl =
    C.Netlist.create
      [ E.Vsource { name = "v1"; np = "in"; nn = "0"; wave = W.dc 10.0;
                    ac_mag = 1.0 };
        r "r1" "in" "mid" 1000.0; r "r2" "mid" "0" 3000.0 ]
  in
  let dc = Dc.solve nl in
  with_fault Fault.Factor (Fault.Nth 1) (fun () ->
      match Sn_engine.Ac.solve ~dc nl ~freq:1.0e6 with
      | _ -> Alcotest.fail "expected an injected fault"
      | exception Diag.Error (Diag.Singular_pivot { pivot; _ } as d) ->
        Alcotest.(check int) "sentinel pivot" (-1) pivot;
        Alcotest.(check bool) "renders as injected" true
          (contains (Diag.to_string d) "injected fault")
      | exception Diag.Error d ->
        Alcotest.failf "expected a singular pivot, got %s" (Diag.to_string d))

(* ------------------------------------------------------------------ *)
(* lint gate, naming, rendering *)

let test_lint_gate_blocks_errors () =
  let bad = C.Netlist.create vsource_clash in
  (match Snoise.Flow.lint_gate bad with
   | () -> Alcotest.fail "expected a lint refusal"
   | exception Diag.Error (Diag.Bad_input { what; _ }) ->
     Alcotest.(check bool) "names the check" true
       (contains what "vsource-loop"));
  (* the escape hatch really is a no-op *)
  Snoise.Flow.lint_gate ~enabled:false bad;
  Snoise.Flow.lint_gate (C.Netlist.create divider)

let test_unknown_node_candidates () =
  let s = Dc.solve (C.Netlist.create divider) in
  match Dc.voltage s "mdi" with
  | _ -> Alcotest.fail "expected Unknown_node"
  | exception Mna.Unknown_node { node; candidates } ->
    Alcotest.(check string) "offending name" "mdi" node;
    Alcotest.(check bool) "suggests mid" true (List.mem "mid" candidates)

let test_diag_json () =
  let module J = Sn_json.Json in
  let at j keys =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) keys
  in
  let str j keys = Option.bind (at j keys) J.to_str in
  let j =
    Diag.to_json
      (Diag.Singular_pivot
         { loc = Diag.loc "dc"; pivot = 3;
           unknown = Some (Diag.Branch "v1") })
  in
  Alcotest.(check (option string)) "kind" (Some "singular-pivot")
    (str j [ "kind" ]);
  Alcotest.(check (option string)) "branch" (Some "v1")
    (str j [ "unknown"; "branch" ]);
  Alcotest.(check (option string)) "analysis" (Some "dc")
    (str j [ "location"; "analysis" ]);
  Alcotest.(check (option int)) "pivot" (Some 3)
    (Option.bind (at j [ "pivot" ]) J.to_int);
  let j2 =
    Diag.to_json
      (Diag.No_convergence
         { loc = Diag.loc "dc"; iterations = 12; residual = 0.5;
           worst = Some (Diag.Node "out");
           attempts =
             [ { Diag.rung = Diag.Plain_newton; iterations = 12;
                 converged = false } ] })
  in
  Alcotest.(check (option string)) "kind 2" (Some "no-convergence")
    (str j2 [ "kind" ]);
  Alcotest.(check (option (float 0.0))) "residual" (Some 0.5)
    (Option.bind (at j2 [ "residual" ]) J.to_float);
  Alcotest.(check (option string)) "worst node" (Some "out")
    (str j2 [ "worst"; "node" ]);
  match Option.bind (at j2 [ "attempts" ]) J.to_list with
  | Some [ a ] ->
    Alcotest.(check (option string)) "rung name" (Some "plain-newton")
      (str a [ "rung" ])
  | _ -> Alcotest.fail "expected one recorded attempt"

let suites =
  [
    ( "robustness.rescue",
      [
        Alcotest.test_case "healthy solve: one plain attempt" `Quick
          test_healthy_trace;
        Alcotest.test_case "source stepping rescues tight clamp" `Quick
          test_source_stepping_rescue;
        Alcotest.test_case "exhausted ladder names worst node" `Quick
          test_ladder_exhausted_diagnostic;
        Alcotest.test_case "singular pivot names the element" `Quick
          test_singular_pivot_names_element;
        Alcotest.test_case "injected DC fault is transparent" `Quick
          test_injected_dc_fault_transparent;
      ] );
    ( "robustness.tran",
      [
        Alcotest.test_case "step backoff recovers injected fault" `Quick
          test_tran_backoff_recovers;
        Alcotest.test_case "fixed-step truncation diagnostic" `Quick
          test_tran_truncation;
      ] );
    ( "robustness.ac",
      [
        Alcotest.test_case "sparse singular pivot names the source" `Quick
          test_ac_sparse_singular_names_branch;
        Alcotest.test_case "injected AC fault is transparent" `Quick
          test_injected_ac_fault_diagnostic;
      ] );
    ( "robustness.diag",
      [
        Alcotest.test_case "lint gate refuses bad netlist" `Quick
          test_lint_gate_blocks_errors;
        Alcotest.test_case "unknown node suggests candidates" `Quick
          test_unknown_node_candidates;
        Alcotest.test_case "stable JSON rendering" `Quick test_diag_json;
      ] );
  ]
