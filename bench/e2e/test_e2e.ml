(* Unit tests of the benchmark harness: cheap, no extraction. *)

open Sn_e2e
module J = Sn_server.Json

let span id parent key start stop = { Trace.id; parent; key; iteration = 0; start; stop }

let self_of key selfs = List.assoc key selfs

let test_self_nested () =
  (* a [0, 10] contains b [2, 7], which contains c [3, 4] *)
  let selfs =
    Trace.self_times [ span 0 (-1) "a" 0.0 10.0; span 1 0 "b" 2.0 7.0; span 2 1 "c" 3.0 4.0 ]
  in
  Alcotest.(check (float 1e-12)) "a" 5.0 (self_of "a" selfs);
  Alcotest.(check (float 1e-12)) "b" 4.0 (self_of "b" selfs);
  Alcotest.(check (float 1e-12)) "c" 1.0 (self_of "c" selfs)

let test_self_back_to_back () =
  (* two children end to end fill their parent; two roots share a key *)
  let selfs =
    Trace.self_times
      [ span 0 (-1) "p" 0.0 4.0; span 1 0 "x" 0.0 1.5; span 2 0 "x" 1.5 4.0;
        span 3 (-1) "p" 4.0 6.0 ]
  in
  Alcotest.(check (float 1e-12)) "p" 2.0 (self_of "p" selfs);
  Alcotest.(check (float 1e-12)) "x" 4.0 (self_of "x" selfs)

let test_span_parents () =
  Trace.enabled := true;
  Trace.span "outer" (fun () -> Trace.span "inner" ignore; Trace.span "inner" ignore);
  Trace.span "next" ignore;
  Trace.enabled := false;
  let spans, _ = Trace.take_iteration () in
  let find key = List.filter (fun (s : Trace.span) -> s.key = key) spans in
  let outer = List.hd (find "outer") in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  Alcotest.(check (list int)) "inner spans are children of outer" [ outer.id; outer.id ]
    (List.map (fun (s : Trace.span) -> s.parent) (find "inner"));
  Alcotest.(check int) "back-to-back root" (-1) (List.hd (find "next")).parent

let test_p90_rule () =
  let samples n = List.init n float_of_int in
  Alcotest.(check bool) "99 samples: no p90" true (Stats.p90 (samples 99) = None);
  Alcotest.(check bool) "10 samples: no p90" true (Stats.p90 (samples 10) = None);
  Alcotest.(check (option (float 1e-9))) "100 samples" (Some 89.1) (Stats.p90 (samples 100))

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun k -> float_of_int (k + 1))) in
  Alcotest.(check (list (float 1e-12))) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

(* ---- the declaration (BENCHMARK.json is printed from Spec and
   checked by a dune rule) ---- *)

let test_suite_runs_spec () =
  Alcotest.(check (list string)) "workloads run"
    (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads)
    (List.map (fun (w : Harness.workload) -> w.name) Suite.all)

let test_emitted_names () =
  (* what a traced run prints, from two fake iterations *)
  let it = Hashtbl.create 8 and other = Hashtbl.create 8 in
  Hashtbl.replace it "substrate.cache_hits" 3.0;
  Hashtbl.replace it "substrate.cache_lookups" 4.0;
  Hashtbl.replace it "server.write_round_ms" 7.0;
  Hashtbl.replace other "server.read_round_ms" 2.0;
  let emitted =
    Harness.per_layer_metrics [ it; other ] ~whole_run:[ ("trace.overhead", 1.02) ]
  in
  Alcotest.(check (list string)) "per-layer names"
    (List.map (fun (m : Spec.per_layer) -> m.name) Spec.per_layer)
    (List.map (fun (n, _, _) -> n) emitted);
  let v name = List.find_map (fun (n, _, x) -> if n = name then Some x else None) emitted in
  Alcotest.(check (option (float 1e-12))) "pooled ratio" (Some 0.75)
    (v "substrate.cache_hit_ratio");
  Alcotest.(check (option (float 1e-12))) "overhead" (Some 1.02) (v "trace.overhead");
  Alcotest.(check (option (float 1e-12))) "median over the iterations that recorded it"
    (Some 7.0) (v "server.write_round_ms");
  let allowed c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " uses [A-Za-z0-9_.-]") true
        (String.length name <= 64 && String.for_all allowed name))
    (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads
    @ List.map (fun (m : Spec.end_to_end) -> m.name) Spec.end_to_end
    @ List.map (fun (n, _, _) -> n) emitted);
  List.iter
    (fun (w : Spec.workload) ->
      Alcotest.(check bool) (w.name ^ ": why fits one short line") true
        (String.length w.why <= 200 && not (String.contains w.why '\n')))
    Spec.workloads

(* ---- tiled_edit placements ---- *)

let test_moves () =
  let rng = Random.State.make [| 7 |] in
  let t = Moves.create () in
  let corners = Hashtbl.create 64 in
  Array.iteri (fun p c -> Hashtbl.replace corners (p, c) ()) Moves.initial;
  let on_pitch_and_in_range (pl : Moves.placement) =
    Array.iteri
      (fun p (x, y) ->
        let port = Moves.ports.(p) in
        let inside v high =
          let lo, hi = Moves.range high in
          v >= lo && v <= hi
        in
        Alcotest.(check bool) "on the cell pitch" true
          (x mod Moves.pitch = 0 && y mod Moves.pitch = 0);
        Alcotest.(check bool) "inside its tile, clear of the probe" true
          (inside x port.high_x && inside y port.high_y))
      pl
  in
  for _ = 1 to 60 do
    let before = t.current in
    match Moves.edit t rng with
    | None -> Alcotest.fail "ran out of corners"
    | Some next ->
      on_pitch_and_in_range next;
      let changed = List.filter (fun p -> before.(p) <> next.(p)) [ 0; 1; 2; 3 ] in
      Alcotest.(check int) "one port moves" 1 (List.length changed);
      let p = List.hd changed in
      Alcotest.(check bool) "to a corner it never held" false
        (Hashtbl.mem corners (p, next.(p)));
      Hashtbl.replace corners (p, next.(p)) ();
      let back = Option.get (Moves.revisit t rng) in
      Alcotest.(check bool) "revisit returns to an earlier placement" true
        (List.mem back t.history && back <> next)
  done

let test_verdicts () =
  let m = { Spec.name = "op_p50_ms"; unit = "ms"; better = Spec.Lower; bound = 0.1 } in
  let v old new_ =
    let _, _, _, v = Results.verdict m ~old ~new_ in
    Results.verdict_name v
  in
  let base = [ 100.0; 101.0; 99.0; 100.5; 99.5 ] in
  Alcotest.(check string) "same" "same" (v base (List.map (fun x -> x *. 1.05) base));
  Alcotest.(check string) "worse" "worse" (v base (List.map (fun x -> x *. 1.2) base));
  Alcotest.(check string) "better" "better" (v base (List.map (fun x -> x *. 0.8) base));
  Alcotest.(check string) "unresolved" "unresolved" (v base [ 60.0; 100.0; 150.0; 90.0; 120.0 ])

let test_stamp_conflicts () =
  let set name fields =
    { Results.name; trace = false; runs = [];
      stamp = J.Obj (("commit", J.Str name) :: List.map (fun (k, v) -> (k, J.Num v)) fields) }
  in
  let base = [ ("run_seconds", 15.0); ("nproc", 2.0); ("pool_jobs", 2.0) ] in
  let conflicts sets = Results.stamp_conflicts sets in
  Alcotest.(check (list string)) "same conditions, other commit" []
    (conflicts [ set "a" base; set "b" base ]);
  Alcotest.(check (list string)) "shorter runs" [ "run_seconds" ]
    (conflicts [ set "a" base; set "b" [ ("run_seconds", 5.0); ("nproc", 2.0); ("pool_jobs", 2.0) ] ]);
  Alcotest.(check (list string)) "wider host and pool" [ "nproc"; "pool_jobs" ]
    (conflicts [ set "a" base; set "b" base; set "c" [ ("run_seconds", 15.0); ("nproc", 8.0); ("pool_jobs", 8.0) ] ]);
  Alcotest.(check (list string)) "a stamp without the field" [ "pool_jobs" ]
    (conflicts [ set "a" base; set "b" [ ("run_seconds", 15.0); ("nproc", 2.0) ] ])

let () =
  Alcotest.run "bench_e2e"
    [
      ( "trace",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_nested;
          Alcotest.test_case "self time of back-to-back spans" `Quick test_self_back_to_back;
          Alcotest.test_case "span parents" `Quick test_span_parents;
        ] );
      ( "stats",
        [
          Alcotest.test_case "p90 needs 10 samples beyond it" `Quick test_p90_rule;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
          Alcotest.test_case "compare refuses other conditions" `Quick test_stamp_conflicts;
        ] );
      ( "spec",
        [
          Alcotest.test_case "the suite runs the declared workloads" `Quick test_suite_runs_spec;
          Alcotest.test_case "emitted metric names" `Quick test_emitted_names;
        ] );
      ("moves", [ Alcotest.test_case "tiled_edit moves stay on the pitch" `Quick test_moves ]);
    ]
