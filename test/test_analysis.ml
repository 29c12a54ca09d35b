(* Structural ERC analyzer: rule behaviour, diagnostic ordering,
   pragma suppression, and — most importantly — soundness of the
   matching-based singularity prediction against the actual solver. *)

module C = Sn_circuit
module E = C.Element
module W = C.Waveform
module A = Sn_analysis
module Diag = Sn_engine.Diag

(* the bare node or element name of a solver unknown, what the
   static analysis is cross-checked against *)
let unknown_name = function Diag.Node n -> n | Diag.Branch b -> b
module Dc = Sn_engine.Dc

let r name n1 n2 ohms = E.Resistor { name; n1; n2; ohms }
let c name n1 n2 farads = E.Capacitor { name; n1; n2; farads }
let l name n1 n2 henries = E.Inductor { name; n1; n2; henries }

let v name np nn value =
  E.Vsource { name; np; nn; wave = W.dc value; ac_mag = 0.0 }

let i name np nn value =
  E.Isource { name; np; nn; wave = W.dc value; ac_mag = 0.0 }

let mos name d g s b =
  E.Mosfet
    { name; drain = d; gate = g; source = s; bulk = b;
      model = C.Mos_model.default_nmos; w = 10e-6; l = 0.18e-6; mult = 1 }

let analyze ?config nl = A.Analyzer.analyze ?config nl

(* everything enabled, no suppressions, pragmas honoured *)
let default_config = A.Analyzer.configure ~disable:[] ~ignore:[]

let codes_of (ds : A.Rule.diagnostic list) =
  List.map (fun (d : A.Rule.diagnostic) -> d.A.Rule.code) ds
  |> List.sort_uniq String.compare

let has code ds = List.mem code (codes_of ds)

let check_has what code report =
  Alcotest.(check bool) what true (has code report.A.Analyzer.diagnostics)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* plain Newton only: no rescue rung may paper over a singularity the
   analyzer is supposed to predict *)
let singular_pivot_of nl =
  let options =
    { Dc.default_options with Dc.ladder = [ Diag.Plain_newton ] }
  in
  match Dc.solve ~options nl with
  | (_ : Dc.solution) -> None
  | exception Diag.Error (Diag.Singular_pivot { unknown; _ }) -> Some unknown
  | exception Diag.Error _ -> None

(* every unknown in every reported dependent group, by name *)
let structural_names nl =
  A.Structural.deficiencies (A.Rule.context nl)
  |> List.concat_map (fun (d : A.Structural.deficiency) ->
         List.map unknown_name d.A.Structural.group)
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* basic rules (ported from the old Circuit.Lint suite) *)

let test_clean_netlist () =
  let nl =
    C.Netlist.create
      [ v "v1" "in" "0" 1.0; r "r1" "in" "out" 1.0e3; r "r2" "out" "0" 1.0e3 ]
  in
  let report = analyze nl in
  Alcotest.(check int) "no diagnostics" 0
    (List.length report.A.Analyzer.diagnostics)

let test_dangling_node () =
  let nl = C.Netlist.create [ r "r1" "a" "0" 1.0e3; r "r2" "a" "b" 1.0e3 ] in
  let report = analyze nl in
  check_has "dangling b" "dangling-node" report;
  Alcotest.(check int) "warning only" 0
    (List.length (A.Analyzer.errors report))

let test_no_ground_path () =
  let nl =
    C.Netlist.create
      [ r "r1" "a" "0" 1.0e3; c "c1" "a" "x" 1e-12; r "r2" "x" "y" 1.0e3 ]
  in
  let errs = A.Analyzer.errors (analyze nl) in
  Alcotest.(check bool) "island reported" true (has "no-ground-path" errs);
  (* deterministic subject: the lexicographically smallest island node *)
  match
    List.find_opt
      (fun (d : A.Rule.diagnostic) -> d.A.Rule.code = "no-ground-path")
      errs
  with
  | Some d ->
    Alcotest.(check string) "subject" "x"
      (A.Rule.subject_name d.A.Rule.subject)
  | None -> Alcotest.fail "missing diagnostic"

let test_vsource_loop () =
  let nl =
    C.Netlist.create
      [ v "v1" "a" "0" 1.0; v "v2" "a" "0" 2.0; r "r1" "a" "0" 1.0 ]
  in
  Alcotest.(check bool) "loop reported" true
    (has "vsource-loop" (A.Analyzer.errors (analyze nl)))

let test_extreme_value () =
  let nl = C.Netlist.create [ r "r1" "a" "0" 1.0e12 ] in
  check_has "extreme R" "extreme-value" (analyze nl);
  (* geometry slips on devices too: W given as if in microns *)
  let nl =
    C.Netlist.create
      [ E.Mosfet
          { name = "m1"; drain = "d"; gate = "g"; source = "0"; bulk = "0";
            model = C.Mos_model.default_nmos; w = 10.0; l = 0.18e-6;
            mult = 1 };
        r "rd" "d" "0" 1e3; r "rg" "g" "0" 1e3 ]
  in
  check_has "extreme W" "extreme-value" (analyze nl)

let test_duplicate_element () =
  let nl =
    C.Netlist.create
      [ r "r1" "a" "0" 1.0e3; r "r1b" "a" "0" 1.0e3; v "v1" "a" "0" 1.0 ]
  in
  check_has "duplicate" "duplicate-element" (analyze nl);
  (* distinct values in parallel are a legitimate construction *)
  let nl =
    C.Netlist.create
      [ r "r1" "a" "0" 1.0e3; r "r2" "a" "0" 2.0e3; v "v1" "a" "0" 1.0 ]
  in
  Alcotest.(check bool) "parallel R ok" false
    (has "duplicate-element" (analyze nl).A.Analyzer.diagnostics)

let test_shorted_element () =
  let nl = C.Netlist.create [ r "r1" "a" "a" 1.0e3; r "r2" "a" "0" 1.0e3 ] in
  check_has "shorted R" "shorted-element" (analyze nl);
  (* 0 and gnd are one node, so spanning them is a short too *)
  let nl =
    C.Netlist.create [ r "r1" "gnd" "0" 1.0e3; r "r2" "a" "0" 1.0e3 ]
  in
  check_has "gnd-0 short" "shorted-element" (analyze nl)

let test_floating_gate_and_body () =
  let nl =
    C.Netlist.create [ mos "m1" "d" "g" "0" "b"; r "rd" "d" "0" 1.0e3 ]
  in
  let report = analyze nl in
  check_has "floating gate" "floating-gate" report;
  check_has "floating body" "floating-body" report;
  (* biasing both silences both *)
  let nl =
    C.Netlist.create
      [ mos "m1" "d" "g" "0" "b";
        r "rd" "d" "0" 1.0e3; v "vg" "g" "0" 1.0; r "rb" "b" "0" 1.0 ]
  in
  let ds = (analyze nl).A.Analyzer.diagnostics in
  Alcotest.(check bool) "gate ok" false (has "floating-gate" ds);
  Alcotest.(check bool) "body ok" false (has "floating-body" ds)

let test_isource_cutset () =
  let nl =
    C.Netlist.create
      [ i "i1" "a" "0" 1.0e-3; r "r1" "a" "b" 1.0e3; r "r2" "b" "a" 2.0e3;
        r "rg" "x" "0" 1.0e3 ]
  in
  let report = analyze nl in
  check_has "cutset" "isource-cutset" report;
  (* a warning, not an error: the gmin floor keeps the deck solvable *)
  Alcotest.(check bool) "cutset is a warning" true
    (List.exists
       (fun (d : A.Rule.diagnostic) -> d.A.Rule.code = "isource-cutset")
       (A.Analyzer.warnings report));
  (* with a resistive return path it stays quiet *)
  let nl =
    C.Netlist.create [ i "i1" "a" "0" 1.0e-3; r "r1" "a" "0" 1.0e3 ]
  in
  Alcotest.(check bool) "return path ok" false
    (has "isource-cutset" (analyze nl).A.Analyzer.diagnostics)

let test_unbound_port_and_untied_ring () =
  (* a substrate macromodel rendered alone: its ports touch nothing *)
  let nl =
    C.Netlist.create
      [ r "rsub_0" "gr" "0" 50.0; r "rsub_1" "gr" "sub_inject" 200.0;
        r "r1" "x" "0" 1.0 ]
  in
  check_has "unbound ports" "unbound-port" (analyze nl);
  (* bind the ring through a wire to ground: both rules go quiet *)
  let nl =
    C.Netlist.create
      [ r "rsub_0" "gr" "0" 50.0; r "rsub_1" "gr" "sub_inject" 200.0;
        r "itc_gr" "gr" "0" 0.5; v "vn" "sub_inject" "0" 1.0 ]
  in
  let ds = (analyze nl).A.Analyzer.diagnostics in
  Alcotest.(check bool) "bound ok" false (has "unbound-port" ds);
  Alcotest.(check bool) "tied ok" false (has "untied-ring" ds);
  (* bound only through a wire that itself floats: untied-ring *)
  let nl =
    C.Netlist.create
      [ r "rsub_0" "gr" "0" 50.0; r "itc_gr" "gr" "ring_island" 0.5;
        r "r1" "x" "0" 1.0 ]
  in
  check_has "untied ring" "untied-ring" (analyze nl);
  (* back-gate probes are observation-only and exempt *)
  let nl =
    C.Netlist.create [ r "rsub_0" "backgate:m1" "0" 50.0; r "r1" "x" "0" 1.0 ]
  in
  Alcotest.(check bool) "probe exempt" false
    (has "unbound-port" (analyze nl).A.Analyzer.diagnostics)

(* ------------------------------------------------------------------ *)
(* structural singularity prediction, cross-checked against the
   engine *)

let test_structural_vsource_clash () =
  let nl =
    C.Netlist.create
      [ v "v1" "in" "0" 1.0; v "v2" "in" "0" 2.0; r "r1" "in" "0" 1.0e3 ]
  in
  check_has "predicted" "structural-singular" (analyze nl);
  let names = structural_names nl in
  match singular_pivot_of nl with
  | Some (Some u) ->
    Alcotest.(check bool)
      (Printf.sprintf "solver pivot %s is in the dependent group"
         (unknown_name u))
      true
      (List.mem (unknown_name u) names)
  | _ -> Alcotest.fail "expected the solver to hit a singular pivot"

let test_structural_inductor_loop_dc_only () =
  let nl =
    C.Netlist.create
      [ v "v1" "in" "0" 1.0; l "l1" "in" "0" 1.0e-8; r "r1" "in" "0" 1.0e3 ]
  in
  (* the AC pattern is regular — the inductor branch row gains its
     jwL diagonal — so the deficiency is reported for DC alone *)
  (match A.Structural.deficiencies (A.Rule.context nl) with
   | [ d ] -> Alcotest.(check string) "dc only" "dc" d.A.Structural.analyses
   | ds -> Alcotest.failf "expected 1 deficiency, got %d" (List.length ds));
  (* and the DC solver indeed dies *)
  match singular_pivot_of nl with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a DC singular pivot"

let test_structural_self_loop () =
  (* a self-looped source: its branch row and column are structurally
     empty (the incidence entries cancel exactly as the numeric stamps
     do), singular at DC and AC *)
  let nl = C.Netlist.create [ v "v1" "a" "a" 1.0; r "r1" "a" "0" 1.0e3 ] in
  let report = analyze nl in
  check_has "predicted" "structural-singular" report;
  (match A.Structural.deficiencies (A.Rule.context nl) with
   | [ d ] ->
     Alcotest.(check string) "both analyses" "dc and ac"
       d.A.Structural.analyses;
     Alcotest.(check string) "names the branch" "v1"
       (unknown_name d.A.Structural.unknown)
   | ds -> Alcotest.failf "expected 1 deficiency, got %d" (List.length ds));
  match singular_pivot_of nl with
  | Some (Some u) ->
    Alcotest.(check string) "solver names it too" "v1" (unknown_name u)
  | _ -> Alcotest.fail "expected a singular pivot"

let test_matching_on_regular_pattern () =
  (* a healthy deck's patterns admit perfect matchings *)
  let nl =
    C.Netlist.create
      [ v "v1" "in" "0" 1.0; r "r1" "in" "out" 1.0e3; r "r2" "out" "0" 1.0e3;
        c "c1" "out" "0" 1e-12; l "l1" "in" "out" 1e-8 ]
  in
  Alcotest.(check int) "no deficiency" 0
    (List.length (A.Structural.deficiencies (A.Rule.context nl)))

(* ------------------------------------------------------------------ *)
(* report determinism and ordering (satellite: stable ordering) *)

let render (d : A.Rule.diagnostic) =
  Format.asprintf "%a" A.Rule.pp_diagnostic d

let messy_elements =
  [ r "rx" "a" "0" 1.0e12;
    v "v1" "b" "0" 1.0; v "v2" "b" "0" 2.0; r "rz" "b" "0" 1.0e3;
    r "rd" "b" "dang" 1.0e3 ]

let test_ordering_stable () =
  let report = analyze (C.Netlist.create messy_elements) in
  let ds = report.A.Analyzer.diagnostics in
  Alcotest.(check bool) "several findings" true (List.length ds >= 3);
  (* sorted by (severity, code, subject, message) *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      A.Rule.compare_diagnostic a b <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted ds);
  (* errors strictly precede warnings *)
  let sevs =
    List.map (fun (d : A.Rule.diagnostic) -> d.A.Rule.severity) ds
  in
  let rec no_error_after_warning seen_warning = function
    | [] -> true
    | A.Rule.Warning :: rest -> no_error_after_warning true rest
    | A.Rule.Error :: rest ->
      (not seen_warning) && no_error_after_warning seen_warning rest
  in
  Alcotest.(check bool) "errors first" true
    (no_error_after_warning false sevs);
  (* a second run renders identically *)
  let again = analyze (C.Netlist.create messy_elements) in
  Alcotest.(check (list string)) "deterministic" (List.map render ds)
    (List.map render again.A.Analyzer.diagnostics)

let test_ordering_permutation_invariant_codes () =
  (* element order must not change WHICH rules fire *)
  let a = analyze (C.Netlist.create messy_elements) in
  let b = analyze (C.Netlist.create (List.rev messy_elements)) in
  Alcotest.(check (list string)) "same codes"
    (codes_of a.A.Analyzer.diagnostics)
    (codes_of b.A.Analyzer.diagnostics)

(* ------------------------------------------------------------------ *)
(* suppression: pragmas and configuration *)

let probe_deck =
  "*%snoise ignore dangling-node probe\n\
   v1 in 0 1.0\n\
   r1 in mid 1k\n\
   r2 mid 0 1k\n\
   rp mid probe 10k\n"

let test_pragma_suppression () =
  let nl = C.Spice.of_string probe_deck in
  let report = analyze nl in
  Alcotest.(check int) "clean" 0 (List.length report.A.Analyzer.diagnostics);
  Alcotest.(check int) "one suppressed" 1 report.A.Analyzer.suppressed;
  (* pragmas can be turned off *)
  let config = { default_config with A.Analyzer.use_pragmas = false } in
  check_has "resurfaces" "dangling-node" (analyze ~config nl)

let test_config_suppression () =
  let nl =
    C.Netlist.create [ r "r1" "a" "0" 1.0e3; r "r2" "a" "b" 1.0e3 ]
  in
  (* subject-scoped ignore *)
  let config =
    { default_config with
      A.Analyzer.ignores = [ ("dangling-node", Some "b") ] }
  in
  let report = analyze ~config nl in
  Alcotest.(check int) "ignored" 0 (List.length report.A.Analyzer.diagnostics);
  Alcotest.(check int) "counted" 1 report.A.Analyzer.suppressed;
  (* a mismatching subject does not suppress *)
  let config =
    { default_config with
      A.Analyzer.ignores = [ ("dangling-node", Some "zz") ] }
  in
  check_has "kept" "dangling-node" (analyze ~config nl);
  (* disabling skips the rule without counting suppressions *)
  let config =
    { default_config with A.Analyzer.disabled = [ "dangling-node" ] }
  in
  let report = analyze ~config nl in
  Alcotest.(check int) "disabled" 0
    (List.length report.A.Analyzer.diagnostics);
  Alcotest.(check int) "not counted" 0 report.A.Analyzer.suppressed

let test_unknown_pragma () =
  let nl = C.Spice.of_string "*%snoise ignore no-such-rule\nr1 a 0 1k\n" in
  check_has "typo flagged" "unknown-pragma" (analyze nl)

let test_pragma_multi_code () =
  (* one marker line, a comma-separated code list, no subject: both
     rules are suppressed by the same pragma line *)
  let deck =
    "*%snoise ignore dangling-node,extreme-value\n\
     v1 in 0 1.0\n\
     r1 in mid 1k\n\
     r2 mid 0 1k\n\
     rp mid probe 10k\n\
     cx mid 0 1e-21\n"
  in
  let nl = C.Spice.of_string deck in
  let ps = C.Netlist.pragmas nl in
  Alcotest.(check int) "one line, two pragmas" 2 (List.length ps);
  List.iter
    (fun (p : C.Netlist.pragma) ->
      match p.C.Netlist.ignore_loc with
      | Some { C.Netlist.line = 1; _ } -> ()
      | _ -> Alcotest.fail "pragma loc is not deck line 1")
    ps;
  let report = analyze nl in
  Alcotest.(check int) "both findings suppressed" 0
    (List.length report.A.Analyzer.diagnostics);
  Alcotest.(check int) "both counted" 2 report.A.Analyzer.suppressed;
  (* with pragmas off, both codes resurface *)
  let config = { default_config with A.Analyzer.use_pragmas = false } in
  let report = analyze ~config nl in
  check_has "dangling-node resurfaces" "dangling-node" report;
  check_has "extreme-value resurfaces" "extreme-value" report

let test_unknown_pragma_loc () =
  (* the diagnostic points at the pragma's own deck line, not at any
     element *)
  let nl =
    C.Spice.of_string "r1 a 0 1k\nr2 a 0 1k\n*%snoise ignore no-such-rule r1\n"
  in
  let report = analyze nl in
  match
    List.find_opt
      (fun (d : A.Rule.diagnostic) -> d.A.Rule.code = "unknown-pragma")
      report.A.Analyzer.diagnostics
  with
  | None -> Alcotest.fail "unknown-pragma did not fire"
  | Some d -> (
    match d.A.Rule.loc with
    | Some { C.Netlist.file = "<string>"; line = 3 } -> ()
    | Some { C.Netlist.file; line } ->
      Alcotest.failf "diagnostic points at %s:%d, expected <string>:3" file
        line
    | None -> Alcotest.fail "unknown-pragma carries no location")

let test_numeric_rule_suppression () =
  (* the numeric rules honour the same suppression machinery as the
     structural ones *)
  let nonpassive =
    C.Netlist.create
      [ v "v1" "p" "0" 1.0; r "rn" "p" "0" (-0.5); r "rq" "p" "0" 1.0 ]
  in
  check_has "non-passive-pool fires" "non-passive-pool" (analyze nonpassive);
  let config =
    { default_config with
      A.Analyzer.ignores = [ ("non-passive-pool", None) ] }
  in
  let report = analyze ~config nonpassive in
  Alcotest.(check bool) "non-passive-pool suppressed" false
    (has "non-passive-pool" report.A.Analyzer.diagnostics);
  Alcotest.(check bool) "suppression counted" true
    (report.A.Analyzer.suppressed >= 1);
  (* subject-scoped: conditioning-span is ignored only on its node *)
  let illcond =
    C.Netlist.create
      [ i "i1" "0" "a" 1.0e-3; r "rbig" "a" "b" 1.0e-20; r "r2" "b" "0" 1.0 ]
  in
  check_has "conditioning-span fires" "conditioning-span" (analyze illcond);
  let config =
    { default_config with
      A.Analyzer.ignores = [ ("conditioning-span", Some "b") ] }
  in
  Alcotest.(check bool) "scoped ignore suppresses" false
    (has "conditioning-span" (analyze ~config illcond).A.Analyzer.diagnostics);
  let config =
    { default_config with
      A.Analyzer.ignores = [ ("conditioning-span", Some "zz") ] }
  in
  check_has "mismatching subject keeps it" "conditioning-span"
    (analyze ~config illcond)

let test_extract_tile_degenerate () =
  (* the docs/LINT.md minimal deck: four tiles, two substrate port
     nodes (gr and backgate:m1) *)
  let deck =
    "*%snoise extract tiles=2x2 grid=48x48\n\
     rsub_1 gr backgate:m1 350\n\
     rgr gr 0 1\n"
  in
  let nl = C.Spice.of_string deck in
  check_has "pigeonhole flagged" "extract-tile-degenerate" (analyze nl);
  (* more tiles than lateral grid cells *)
  let nl =
    C.Spice.of_string
      "*%snoise extract tiles=8x8 grid=4x4\nrsub_1 gr 0 350\n"
  in
  check_has "empty tiles flagged" "extract-tile-degenerate" (analyze nl);
  (* an unparsable tiles value must not pass silently *)
  let nl =
    C.Spice.of_string "*%snoise extract tiles=wide\nrsub_1 gr 0 350\n"
  in
  check_has "parse failure flagged" "extract-tile-degenerate" (analyze nl);
  (* a sound configuration stays silent *)
  let nl =
    C.Spice.of_string
      "*%snoise extract tiles=1x2 grid=48x48\n\
       rsub_1 gr backgate:m1 350\n\
       rgr gr 0 1\n"
  in
  Alcotest.(check bool)
    "sound config silent" false
    (has "extract-tile-degenerate" (analyze nl).A.Analyzer.diagnostics);
  (* directives survive a serialization round trip *)
  let nl = C.Spice.of_string deck in
  let nl' = C.Spice.of_string (C.Spice.to_string nl) in
  Alcotest.(check bool)
    "directive round-trips" true
    (C.Netlist.directives nl' = C.Netlist.directives nl
    && C.Netlist.directives nl
       = [ { C.Netlist.verb = "extract";
             args = [ ("tiles", "2x2"); ("grid", "48x48") ] } ]);
  check_has "round-tripped deck still flagged" "extract-tile-degenerate"
    (analyze nl')

(* ------------------------------------------------------------------ *)
(* JSON output *)

let test_json_shape () =
  let module J = Sn_json.Json in
  let nl = C.Netlist.create [ r "r1" "a" "0" 1.0e3; r "r2" "a" "b" 1.0e3 ] in
  let j = A.Analyzer.to_json (analyze nl) in
  let field k o =
    match J.member k o with
    | Some v -> v
    | None -> Alcotest.failf "no %S in %s" k (J.to_string o)
  in
  let str k o = J.to_str (field k o) and int k o = J.to_int (field k o) in
  Alcotest.(check (option string)) "tool" (Some "snoise lint") (str "tool" j);
  Alcotest.(check bool) "version" true (str "version" j <> None);
  Alcotest.(check (option int)) "errors" (Some 0) (int "errors" j);
  Alcotest.(check (option int)) "warnings" (Some 1) (int "warnings" j);
  Alcotest.(check (option int)) "suppressed" (Some 0) (int "suppressed" j);
  match J.to_list (field "diagnostics" j) with
  | Some [ d ] ->
    Alcotest.(check (option string)) "code" (Some "dangling-node")
      (str "code" d);
    Alcotest.(check (option string)) "subject_kind" (Some "node")
      (str "subject_kind" d);
    Alcotest.(check (option string)) "subject" (Some "b") (str "subject" d);
    Alcotest.(check (option string)) "severity" (Some "warning")
      (str "severity" d)
  | _ -> Alcotest.failf "expected one diagnostic: %s" (J.to_string j)

(* ------------------------------------------------------------------ *)
(* registry hygiene *)

let test_registry () =
  let codes = List.map (fun r -> r.A.Rule.code) A.Rules.registry in
  Alcotest.(check (list string)) "sorted by code"
    (List.sort String.compare codes) codes;
  Alcotest.(check int) "unique"
    (List.length codes)
    (List.length (List.sort_uniq String.compare codes))

(* ------------------------------------------------------------------ *)
(* deck sweep: the acceptance criterion, executable.  For every deck
   in the test and example deck directories: a deck the solver
   rejects with a singular pivot must carry a diagnostic naming that
   unknown — an error for structural singularities, or a
   conditioning-span warning for numeric ones (a warning because the
   gmin rescue ladder usually recovers those; the sweep solves
   plain-Newton-only, so the prediction is still exercised); a deck
   that simulates must carry no error at all. *)

let deck_dirs = [ "decks"; Filename.concat ".." "examples/decks" ]

let all_decks () =
  List.concat_map
    (fun dir ->
      if Sys.file_exists dir && Sys.is_directory dir then
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".sp")
        |> List.map (Filename.concat dir)
        |> List.sort String.compare
      else [])
    deck_dirs

let test_deck_sweep () =
  let decks = all_decks () in
  Alcotest.(check bool) "found the deck corpus" true (List.length decks >= 4);
  List.iter
    (fun path ->
      let nl = C.Spice.load path in
      let report = analyze nl in
      let errs = A.Analyzer.errors report in
      let spans =
        List.filter
          (fun (d : A.Rule.diagnostic) -> d.A.Rule.code = "conditioning-span")
          report.A.Analyzer.diagnostics
      in
      match singular_pivot_of nl with
      | Some unknown ->
        if errs = [] && spans = [] then
          Alcotest.failf "%s: solver hit a singular pivot but lint is clean"
            path;
        (match unknown with
         | None -> ()
         | Some u ->
           let n = unknown_name u in
           let named =
             List.mem n (structural_names nl)
             || List.exists
                  (fun (d : A.Rule.diagnostic) ->
                    A.Rule.subject_name d.A.Rule.subject = n)
                  (errs @ spans)
           in
           if not named then
             Alcotest.failf "%s: pivot %s not named by any diagnostic" path n)
      | None ->
        (* non-passive-pool is the one error whose failure mode is not
           a DC singularity: an indefinite pencil factorizes fine but
           pumps energy in AC/transient, so the deck "simulates" here *)
        List.iter
          (fun (d : A.Rule.diagnostic) ->
            if d.A.Rule.code <> "non-passive-pool" then
              Alcotest.failf "%s simulates but lints with an error: %s" path
                (render d))
          errs)
    decks

let test_probe_deck_lints_clean () =
  let path = Filename.concat ".." "examples/decks/probe_divider.sp" in
  if Sys.file_exists path then begin
    let report = analyze (C.Spice.load path) in
    Alcotest.(check int) "clean" 0
      (List.length report.A.Analyzer.diagnostics);
    Alcotest.(check int) "suppressed" 1 report.A.Analyzer.suppressed
  end

(* ------------------------------------------------------------------ *)
(* the merged VCO impact model: error-free, and the merge layer
   really uses the name prefixes the port-binding rules key on *)

let test_merged_vco_clean_and_contract () =
  let flow = Snoise.Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.0 in
  let nl = Snoise.Flow.vco_merged flow in
  let report = analyze nl in
  List.iter
    (fun d -> Format.eprintf "%s@." (render d))
    (A.Analyzer.errors report);
  Alcotest.(check int) "no errors" 0 (List.length (A.Analyzer.errors report));
  let names = List.map E.name (C.Netlist.elements nl) in
  Alcotest.(check bool) "substrate prefix contract" true
    (List.exists (has_prefix "rsub_") names);
  Alcotest.(check bool) "interconnect prefix contract" true
    (List.exists (has_prefix "itc_") names);
  let nodes = C.Netlist.nodes nl in
  Alcotest.(check bool) "probe port contract" true
    (List.exists (has_prefix "backgate:") nodes)

(* The paper's own merged decks bind every n-well port through its
   junction capacitor (cwell_* from nwell:<net> to <net>): the VCO
   deck lints without a warning, and neither deck warns unbound-port.
   A well whose net nothing else touches still warns. *)
let test_merged_decks_bind_wells () =
  let codes nl =
    List.map
      (fun (d : A.Rule.diagnostic) -> d.A.Rule.code)
      (A.Analyzer.warnings (analyze nl))
  in
  let vco =
    Snoise.Flow.vco_merged
      (Snoise.Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.45)
  in
  Alcotest.(check bool) "VCO deck has well ports" true
    (List.exists (has_prefix "nwell:") (C.Netlist.nodes vco));
  Alcotest.(check (list string)) "VCO deck: no warning" [] (codes vco);
  let nmos =
    let p = Sn_testchip.Nmos_structure.default in
    fst
      (Snoise.Flow.merge
         (Snoise.Flow.extract (Sn_testchip.Nmos_structure.structure p))
         (Sn_testchip.Nmos_structure.biased p ~vgs:0.9 ~vds:1.0))
  in
  Alcotest.(check (list string)) "NMOS deck: no warning" [] (codes nmos);
  let floating = C.Spice.load (Filename.concat "decks" "floating_well.sp") in
  Alcotest.(check bool) "floating well warns" true
    (List.exists
       (fun (d : A.Rule.diagnostic) ->
         d.A.Rule.code = "unbound-port"
         && A.Rule.subject_name d.A.Rule.subject = "nwell:vdd_lcl")
       (A.Analyzer.warnings (analyze floating)))

(* ------------------------------------------------------------------ *)
(* QCheck soundness harness: on random small decks, a clean bill of
   health must never precede a singular pivot, and when the matching
   does report a deficiency the solver's pivot name must be inside
   the dependent group *)

let netlist_of_seed seed =
  let nodes = [| "0"; "a"; "b"; "c" |] in
  let build idx (k, a, b) =
    let n1 = nodes.(a mod Array.length nodes)
    and n2 = nodes.(b mod Array.length nodes) in
    match k mod 5 with
    | 0 -> r (Printf.sprintf "r%d" idx) n1 n2 1.0e3
    | 1 -> c (Printf.sprintf "c%d" idx) n1 n2 1.0e-12
    | 2 -> l (Printf.sprintf "l%d" idx) n1 n2 1.0e-8
    | 3 -> v (Printf.sprintf "v%d" idx) n1 n2 1.0
    | _ -> i (Printf.sprintf "i%d" idx) n1 n2 1.0e-3
  in
  C.Netlist.create (r "rground" "a" "0" 1.0e3 :: List.mapi build seed)

let prop_structural_soundness =
  QCheck.Test.make ~count:300
    ~name:"no clean lint report on a deck with a singular pivot"
    QCheck.(
      list_of_size (Gen.int_range 0 6)
        (triple small_nat small_nat small_nat))
    (fun seed ->
      let nl = netlist_of_seed seed in
      let errs = A.Analyzer.errors (analyze nl) in
      (* soundness: a deck the solver rejects with a singular pivot
         must never get a clean bill of health.  (The stronger
         same-unknown naming guarantee is asserted by the
         deterministic tests and the deck sweep: on random decks
         several singularities can overlap, and the numeric pivot may
         belong to a pattern-perfect one while the matching names
         another.) *)
      match singular_pivot_of nl with
      | None -> true
      | Some _ -> errs <> [])

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "analysis.rules",
      [
        Alcotest.test_case "clean netlist" `Quick test_clean_netlist;
        Alcotest.test_case "dangling node" `Quick test_dangling_node;
        Alcotest.test_case "no ground path" `Quick test_no_ground_path;
        Alcotest.test_case "vsource loop" `Quick test_vsource_loop;
        Alcotest.test_case "extreme value" `Quick test_extreme_value;
        Alcotest.test_case "duplicate element" `Quick test_duplicate_element;
        Alcotest.test_case "shorted element" `Quick test_shorted_element;
        Alcotest.test_case "floating gate and body" `Quick
          test_floating_gate_and_body;
        Alcotest.test_case "isource cutset" `Quick test_isource_cutset;
        Alcotest.test_case "unbound port / untied ring" `Quick
          test_unbound_port_and_untied_ring;
        Alcotest.test_case "registry" `Quick test_registry;
      ] );
    ( "analysis.structural",
      [
        Alcotest.test_case "vsource clash" `Quick
          test_structural_vsource_clash;
        Alcotest.test_case "inductor loop is DC-only" `Quick
          test_structural_inductor_loop_dc_only;
        Alcotest.test_case "self-looped source" `Quick
          test_structural_self_loop;
        Alcotest.test_case "regular pattern matches perfectly" `Quick
          test_matching_on_regular_pattern;
        qcheck prop_structural_soundness;
      ] );
    ( "analysis.report",
      [
        Alcotest.test_case "stable ordering" `Quick test_ordering_stable;
        Alcotest.test_case "permutation-invariant codes" `Quick
          test_ordering_permutation_invariant_codes;
        Alcotest.test_case "pragma suppression" `Quick
          test_pragma_suppression;
        Alcotest.test_case "config suppression" `Quick
          test_config_suppression;
        Alcotest.test_case "unknown pragma" `Quick test_unknown_pragma;
        Alcotest.test_case "multi-code pragma" `Quick test_pragma_multi_code;
        Alcotest.test_case "unknown pragma location" `Quick
          test_unknown_pragma_loc;
        Alcotest.test_case "numeric rule suppression" `Quick
          test_numeric_rule_suppression;
        Alcotest.test_case "extract tile degenerate" `Quick
          test_extract_tile_degenerate;
        Alcotest.test_case "json shape" `Quick test_json_shape;
      ] );
    ( "analysis.decks",
      [
        Alcotest.test_case "acceptance sweep" `Quick test_deck_sweep;
        Alcotest.test_case "probe deck lints clean" `Quick
          test_probe_deck_lints_clean;
        Alcotest.test_case "merged VCO is error-free (contract)" `Slow
          test_merged_vco_clean_and_contract;
        Alcotest.test_case "merged decks bind their wells" `Slow
          test_merged_decks_bind_wells;
      ] );
  ]
