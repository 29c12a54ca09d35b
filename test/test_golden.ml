(* Byte-identity goldens for every JSON emitter: the analyzer report,
   the verify documents (CLI and wire) and the wire replies that embed
   engine diagnostics or analyzer reports.  The expected strings were
   captured from the hand-rendered emitters before they moved onto the
   one JSON value type; a change here is a change to documented
   output. *)

module J = Sn_server.Json
module Sv = Sn_server.Service
module A = Sn_analysis
module C = Sn_circuit
module E = Sn_engine
module G = Sn_geometry
module Sub = Sn_substrate

open Helpers

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* served.elapsed_ms is wall time; pin it so replies compare bytewise *)
let pin_elapsed = function
  | J.Obj members ->
    J.Obj
      (List.map
         (function
           | "served", J.Obj s ->
             ( "served",
               J.Obj
                 (List.map
                    (function
                      | "elapsed_ms", _ -> ("elapsed_ms", J.Num 0.0)
                      | m -> m)
                    s) )
           | m -> m)
         members)
  | j -> j

let handle1 svc line =
  match Sv.handle svc ~client:1 line with
  | [ r ] -> pin_elapsed r
  | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs)

let wire svc line = J.to_string (handle1 svc line)

(* a reducible RC ladder: the reduced plan it leaves resident carries a
   passivity certificate *)
let ladder_deck =
  let b = Buffer.create 512 in
  Buffer.add_string b "* reducible ladder\n*%snoise reduce keep=out\n";
  Buffer.add_string b "vin in 0 dc 0 ac 1\nrdrv in p0 50\n";
  for i = 0 to 23 do
    Buffer.add_string b (Printf.sprintf "rl%d p%d p%d 100\n" i i (i + 1));
    Buffer.add_string b (Printf.sprintf "cl%d p%d 0 1p\n" (i + 1) (i + 1))
  done;
  Buffer.add_string b "rout p24 out 100\nrload out 0 10k\n.end\n";
  Buffer.contents b

let rc_deck =
  "* rc low-pass\nv1 in 0 dc 1 ac 1\nr1 in out 1k\nc1 out 0 1n\n.end\n"

let vsource_loop_deck =
  "* voltage source loop\nv1 in 0 1.0\nv2 in 0 2.0\nr1 in 0 1k\n.end\n"

(* a 2x2-tiled extraction into a fresh directory: four certified
   entries for the cache-mode documents *)
let warm_cache_dir () =
  let dir = Filename.temp_dir "snoise_golden_" "" in
  let port name x y =
    Sub.Port.v ~name ~kind:Sub.Port.Resistive
      [ G.Rect.make x y (x +. 12.0) (y +. 12.0) ]
  in
  ignore
    (Sub.Extractor.extract
       ~config:{ Sub.Grid.nx = 16; ny = 16; z_per_layer = Some [ 1; 1; 1; 1 ] }
       ~tiles:(2, 2) ~cache:(Sub.Cache.create ~dir) ~tech:Sn_tech.Tech.imec018
       ~die:(G.Rect.make 0.0 0.0 60.0 60.0)
       [ port "a" 4.0 4.0; port "b" 44.0 4.0; port "c" 4.0 44.0;
         port "d" 44.0 44.0 ]);
  dir

let rm_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* analyzer reports ([snoise lint --json]) *)

let expected_inductor_loop =
  {|{"tool": "snoise lint", "version": "1.0.0", "schema_version": 2, "errors": 2, "warnings": 0, "suppressed": 0, "diagnostics": [{"severity": "error", "code": "structural-singular", "subject_kind": "element", "subject": "l1", "message": "the dc MNA pattern is structurally singular: no equation can pivot for branch of l1 (dependent group: branch of v1, branch of l1); solving would fail with a singular pivot", "file": "decks/inductor_loop.sp", "line": 6}, {"severity": "error", "code": "vsource-loop", "subject_kind": "element", "subject": "l1", "message": "element l1 closes a loop of ideal voltage sources / inductors (singular at DC)", "file": "decks/inductor_loop.sp", "line": 6}]}|}

let expected_illcond =
  {|{"tool": "snoise lint", "version": "1.0.0", "schema_version": 2, "errors": 0, "warnings": 2, "suppressed": 0, "diagnostics": [{"severity": "warning", "code": "conditioning-span", "subject_kind": "node", "subject": "b", "message": "conductances at node b span 1.0e+20 (rbig at 1e+20 S against r2 at 1 S): LU cancellation leaves ~0 significant digits in the pivot; beyond 1e16 it underflows to zero and the solve fails with a singular pivot at this node", "file": null, "line": null}, {"severity": "warning", "code": "extreme-value", "subject_kind": "element", "subject": "rbig", "message": "rbig: resistance 1e-20 ohm is outside [1e-06, 1e+11]", "file": "decks/illcond.sp", "line": 6}]}|}

let analyzer_json path =
  J.to_string (A.Analyzer.to_json (A.Analyzer.analyze (C.Spice.load path)))

let test_analyzer () =
  Alcotest.(check string) "inductor_loop" expected_inductor_loop
    (analyzer_json "decks/inductor_loop.sp");
  Alcotest.(check string) "illcond" expected_illcond (analyzer_json "decks/illcond.sp")

(* ------------------------------------------------------------------ *)
(* verify documents *)

let expected_verify_deck =
  {|{"type": "response", "id": 1, "verb": "verify", "result": {"schema_version": 2, "mode": "deck", "report": {"tool": "snoise lint", "version": "1.0.0", "schema_version": 2, "errors": 0, "warnings": 2, "suppressed": 0, "diagnostics": [{"severity": "warning", "code": "conditioning-span", "subject_kind": "node", "subject": "b", "message": "conductances at node b span 1.0e+20 (rbig at 1e+20 S against r2 at 1 S): LU cancellation leaves ~0 significant digits in the pivot; beyond 1e16 it underflows to zero and the solve fails with a singular pivot at this node", "file": null, "line": null}, {"severity": "warning", "code": "extreme-value", "subject_kind": "element", "subject": "rbig", "message": "rbig: resistance 1e-20 ohm is outside [1e-06, 1e+11]", "file": "decks/illcond.sp", "line": 6}]}, "conditioning": [{"node": "b", "ratio": 1e+20, "hi": {"element": "rbig", "siemens": 1e+20}, "lo": {"element": "r2", "siemens": 1}, "digits": 0}], "stiffness": null, "pool": [], "reduction": "not-reduced", "failing": true}, "served": {"elapsed_ms": 0, "plan": null, "bias": null, "batched": 1}}|}

let expected_verify_cache =
  {|{"type": "response", "id": 2, "verb": "verify", "result": {"schema_version": 2, "mode": "cache", "dir": "<dir>", "entries": [{"key": "29a6b0bacb2b57f5b5aa5117cbf298f3", "status": "certified"}, {"key": "2dfd385c9a6f581c1958bab9c3b87bed", "status": "certified"}, {"key": "4f7b79f14345c66e88d8c909da16e3eb", "status": "certified"}, {"key": "c8228a991b6a39ff874d69417bf9c129", "status": "certified"}], "certified": 4, "recertified": 0, "stale": 0, "bad": 0, "failing": false}, "served": {"elapsed_ms": 0, "plan": null, "bias": null, "batched": 1}}|}

let expected_verify_plans =
  {|{"type": "response", "id": 4, "verb": "verify", "result": {"schema_version": 2, "mode": "plans", "plans": 1, "exact": 0, "certified": 1, "uncertified": 0, "bad": 0, "failing": false}, "served": {"elapsed_ms": 0, "plan": null, "bias": null, "batched": 1}}|}

let test_verify_wire () =
  let svc = Sv.create () in
  Alcotest.(check string) "verify deck" expected_verify_deck
    (wire svc {|{"id": 1, "verb": "verify", "deck_path": "decks/illcond.sp"}|});
  let dir = warm_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_dir dir)
    (fun () ->
      let line =
        Printf.sprintf {|{"id": 2, "verb": "verify", "params": {"cache_dir": %s}}|}
          (J.to_string (J.Str dir))
      in
      Alcotest.(check string) "verify cache" expected_verify_cache
        (replace_all ~sub:dir ~by:"<dir>" (wire svc line)));
  ignore
    (handle1 svc
       (Printf.sprintf
          {|{"id": 3, "verb": "ac", "deck": %s, "overrides": {"reduce_order": 4}, "params": {"freqs": [1e6], "nodes": ["out"]}}|}
          (J.to_string (J.Str ladder_deck))));
  Alcotest.(check string) "verify plans" expected_verify_plans
    (wire svc {|{"id": 4, "verb": "verify"}|})

(* [snoise verify --json] prints the same documents as the verify verb,
   plus a "deck" member in deck mode *)
let test_cli_matches_server () =
  let svc = Sv.create () in
  let served line =
    match J.member "result" (handle1 svc line) with
    | Some r -> J.to_string r
    | None -> Alcotest.fail "verify reply has no result"
  in
  let path = "decks/illcond.sp" in
  let cli =
    Snoise.Report.verify_json ~deck:path
      (Snoise.Flow.preflight
         ~config:(A.Analyzer.configure ~disable:[] ~ignore:[])
         (C.Spice.load path))
  in
  let without_deck =
    match cli with
    | J.Obj members -> J.Obj (List.remove_assoc "deck" members)
    | j -> j
  in
  Alcotest.(check bool) "cli names the deck" true
    (J.member "deck" cli = Some (J.Str path));
  Alcotest.(check string) "deck mode" (J.to_string without_deck)
    (served (Printf.sprintf {|{"verb": "verify", "deck_path": %S}|} path));
  let dir = warm_cache_dir () in
  Fun.protect
    ~finally:(fun () -> rm_dir dir)
    (fun () ->
      let cli =
        Snoise.Report.cache_verification_json ~dir
          (Sub.Cache.verify_dir (Sub.Cache.create ~dir))
      in
      Alcotest.(check string) "cache mode" (J.to_string cli)
        (served
           (Printf.sprintf {|{"verb": "verify", "params": {"cache_dir": %s}}|}
              (J.to_string (J.Str dir)))))

(* ------------------------------------------------------------------ *)
(* wire replies that embed diagnostics *)

let expected_lint_refused =
  {|{"type": "error", "id": 1, "error": {"code": "lint-refused", "message": "lint errors refused simulation", "lint": {"tool": "snoise lint", "version": "1.0.0", "schema_version": 2, "errors": 2, "warnings": 0, "suppressed": 0, "diagnostics": [{"severity": "error", "code": "structural-singular", "subject_kind": "element", "subject": "v2", "message": "the dc and ac MNA pattern is structurally singular: no equation can pivot for branch of v2 (dependent group: branch of v1, branch of v2); solving would fail with a singular pivot", "file": "<inline>", "line": 3}, {"severity": "error", "code": "vsource-loop", "subject_kind": "element", "subject": "v2", "message": "element v2 closes a loop of ideal voltage sources / inductors (singular at DC)", "file": "<inline>", "line": 3}]}}}|}

let expected_engine_diag_dc =
  {|{"type": "error", "id": 2, "error": {"code": "engine-diag", "message": "dc: singular pivot at column 1 (node b)", "diag": {"kind": "singular-pivot", "location": {"analysis": "dc", "time": null, "freq": null}, "pivot": 1, "unknown": {"node": "b"}}}}|}

let expected_engine_diag_ac =
  {|{"type": "error", "id": 4, "error": {"code": "engine-diag", "message": "ac at f = 1e+06 Hz: singular pivot (injected fault)", "diag": {"kind": "singular-pivot", "location": {"analysis": "ac", "time": null, "freq": 1000000}, "pivot": -1, "unknown": null}}}|}

let expected_tran_truncated =
  {|{"type": "response", "id": 5, "verb": "tran", "result": {"times": [0], "waves": {"a": [0.000999999999999], "b": [0]}, "truncated": {"kind": "step-truncated", "location": {"analysis": "tran", "time": 1e-07, "freq": null}, "dt_final": 1.5625e-09, "retries": 6, "completed_points": 1}}, "served": {"elapsed_ms": 0, "plan": "miss", "bias": null, "batched": 1}}|}

(* coupling capacitor whose transient companion conductance (2C/h)
   swamps the 1 S resistors: DC is fine, every time step meets a
   singular pivot and the waveform is truncated *)
let stiff_deck =
  "* stiff coupling\ni1 0 a dc 1m\nr1 a 0 1\ncbig a b 1e10\nr2 b 0 1\n.end\n"

let test_wire_diagnostics () =
  let svc = Sv.create () in
  Alcotest.(check string) "lint-refused" expected_lint_refused
    (wire svc
       (Printf.sprintf {|{"id": 1, "verb": "op", "deck": %s}|}
          (J.to_string (J.Str vsource_loop_deck))));
  Alcotest.(check string) "engine-diag dc" expected_engine_diag_dc
    (wire svc {|{"id": 2, "verb": "op", "deck_path": "decks/illcond.sp"}|});
  let rc = J.to_string (J.Str rc_deck) in
  ignore (handle1 svc (Printf.sprintf {|{"id": 3, "verb": "op", "deck": %s}|} rc));
  with_fault E.Fault.Factor (E.Fault.Nth 1) (fun () ->
      Alcotest.(check string) "engine-diag ac" expected_engine_diag_ac
        (wire svc
           (Printf.sprintf
              {|{"id": 4, "verb": "ac", "deck": %s, "params": {"freqs": [1e6], "nodes": ["out"]}}|}
              rc)));
  Alcotest.(check string) "tran truncated" expected_tran_truncated
    (wire svc
       (Printf.sprintf
          {|{"id": 5, "verb": "tran", "deck": %s, "params": {"tstop": 1e-6, "dt": 1e-7}}|}
          (J.to_string (J.Str stiff_deck))))

(* ------------------------------------------------------------------ *)
(* float bytes: the served replies of the merged VCO deck and the deck
   as the SPICE writer prints it, pinned by digest.  Nearly every byte
   of these documents is a printed float, so any change to the float
   printer's output shows here. *)

let vco_nodes =
  List.sort_uniq String.compare
    (List.map snd Sn_testchip.Vco_chip.sensitive_nodes @ [ "sub_inject" ])

let digest s = Digest.to_hex (Digest.string s)

let test_vco_float_bytes () =
  let deck =
    C.Spice.to_string
      (Snoise.Flow.vco_merged
         (Snoise.Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.45))
  in
  let floats xs = J.Arr (List.map (fun x -> J.Num x) xs) in
  let strs xs = J.Arr (List.map (fun x -> J.Str x) xs) in
  let freqs = floats (Array.to_list (Sn_numerics.Sweep.logspace 1.0e5 15.0e6 16)) in
  let svc = Sv.create () in
  let result verb source params =
    let line = J.Obj ((("verb", J.Str verb) :: source) @ [ ("params", J.Obj params) ]) in
    match J.member "result" (handle1 svc (J.to_string line)) with
    | Some r -> J.to_string r
    | None -> Alcotest.failf "%s reply has no result" verb
  in
  let on_deck = [ ("deck", J.Str deck) ] in
  let ac = [ ("freqs", freqs); ("nodes", strs vco_nodes) ] in
  let noise = [ ("freqs", freqs); ("output", J.Str "vss_local") ] in
  let spur = [ ("f_noise", J.Num 1.0e7); ("vtune", J.Num 0.45) ] in
  List.iter
    (fun (name, expect, text) -> Alcotest.(check string) name expect (digest text))
    [
      ("merged deck", "56585fd6b83983dfbcf326c2a0954677", deck);
      ("ac", "0859cd75cc8a48eeecf0215df75872ce", result "ac" on_deck ac);
      ("noise", "c367e057cbe1551eeb4d19bbd9e87c83", result "noise" on_deck noise);
      ( "op", "f5c55a3b53e610bc012cedba471e6512",
        result "op" on_deck [ ("nodes", strs vco_nodes) ] );
      ("spur", "c7fdec5f3157b7a146d13a8ca9abcee0", result "spur" [] spur);
    ]

let suites =
  [
    ( "golden-json",
      [
        Alcotest.test_case "analyzer reports" `Quick test_analyzer;
        Alcotest.test_case "verify documents on the wire" `Quick
          test_verify_wire;
        Alcotest.test_case "cli verify matches the verify verb" `Quick
          test_cli_matches_server;
        Alcotest.test_case "wire diagnostics" `Quick test_wire_diagnostics;
        Alcotest.test_case "vco reply and deck float bytes" `Quick
          test_vco_float_bytes;
      ] );
  ]
