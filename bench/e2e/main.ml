(* The end-to-end benchmark's command line.  See README.md. *)

open Sn_e2e
module J = Sn_server.Json

let usage =
  {|usage:
  main.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
      Run one workload in this process.  The last line on stdout is the
      JSON result: end-to-end metrics, or per-layer metrics with --trace 1.
  main.exe run [--seed N] [--runs K] [--trace] [--set NAME] [--out FILE]
      Run every workload for the declared run length, one after another
      and each in its own process, for the K seeds N, N+1, ...; add the
      runs as set NAME to FILE (default _build/bench/results/runs.json).
  main.exe compare OLD[:SET] NEW[:SET]
      Compare the untraced runs of two result files, metric by metric;
      exit 1 when any verdict is "worse", 2 when the runs were measured
      under different conditions.
  main.exe spec
      Print BENCHMARK.json.
|}

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench/e2e: " ^ msg);
      prerr_string usage;
      exit 2)
    fmt

let int_arg flag v =
  match int_of_string_opt v with Some n -> n | None -> die "%s wants an integer, got %S" flag v

let float_arg flag v =
  match float_of_string_opt v with
  | Some x when x > 0.0 -> x
  | _ -> die "%s wants a positive number, got %S" flag v

let workload_arg name =
  match Suite.find name with Some w -> w | None -> die "unknown workload %S" name

(* --- one workload, in this process --- *)

let run_one args =
  let workload = ref None and seed = ref 1 in
  let seconds = ref (float_of_int Spec.run_seconds) and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some (workload_arg v); parse rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_arg "--seconds" v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | a :: _ -> die "unexpected argument %S" a
  in
  parse args;
  match !workload with
  | None -> die "--workload is required"
  | Some w -> Harness.run w ~seed:!seed ~seconds:!seconds ~trace:!trace

(* --- all workloads, one process each --- *)

(* A process that dies or prints no result is recorded as one failed
   operation with no metrics, so the set is still written and
   `compare` counts the workload's failing runs. *)
let spawn (w : Harness.workload) ~seed ~trace =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--workload"; w.name; "--seed"; string_of_int seed;
       "--seconds"; string_of_int Spec.run_seconds; "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else Some l) None
      (String.split_on_char '\n' out)
  in
  let result =
    match (status, Option.map J.parse last) with
    | Unix.WEXITED 0, Some (Ok result) -> result
    | _ ->
      Printf.eprintf "%s seed %d: the workload process failed\n%!" w.name seed;
      Harness.result_json ~correct:false ~attempted:1 ~failed:1 []
  in
  Results.run_of_result ~workload:w.name ~seed result

let stamp () =
  let git args = Host.command_output ("git " ^ args ^ " 2>/dev/null") in
  let t = Unix.gmtime (Unix.time ()) in
  J.Obj
    [
      ("commit", J.Str (Option.value (git "rev-parse HEAD") ~default:"unknown"));
      ("dirty", J.Bool (match git "status --porcelain" with Some "" | None -> false | Some _ -> true));
      ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("pool_jobs", J.Num (float_of_int (Sn_engine.Pool.env_jobs ())));
      ("ocaml", J.Str Sys.ocaml_version);
      ( "date",
        J.Str
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
             (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec) );
      ("run_seconds", J.Num (float_of_int Spec.run_seconds));
    ]

let summarize (runs : Results.run list) =
  List.iter
    (fun (w : Spec.workload) ->
      let mine = List.filter (fun (r : Results.run) -> r.workload = w.name) runs in
      if mine <> [] then begin
        Printf.printf "%-14s %d run(s), %d failing\n" w.name (List.length mine)
          (Results.failures runs w.name);
        let names =
          match List.find_opt (fun (r : Results.run) -> r.metrics <> []) mine with
          | Some r -> List.map fst r.metrics
          | None -> []
        in
        List.iter
          (fun name ->
            let q1, med, q3 = Stats.quartiles (Results.metric_values runs w.name name) in
            Printf.printf "  %-28s %14.6g  [%.6g, %.6g]\n" name med q1 q3)
          names
      end)
    Spec.workloads

let run_all args =
  Host.guard_environment ();
  let seed = ref 1 and runs = ref 1 in
  let trace = ref false and set = ref None and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--runs" :: v :: rest -> runs := max 1 (int_arg "--runs" v); parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--set" :: v :: rest -> set := Some v; parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | a :: _ -> die "unexpected argument %S" a
  in
  parse args;
  let stamp = stamp () in
  (* seed by seed, every workload in turn: the host's speed drifts over
     minutes, and this spreads the drift over all workloads alike *)
  let results =
    List.concat
      (List.init !runs (fun k ->
           List.map (fun w -> spawn w ~seed:(!seed + k) ~trace:!trace) Suite.all))
  in
  let name =
    Option.value !set ~default:(if !trace then "traced" else "untraced")
  in
  let path =
    Option.value !out
      ~default:(Filename.concat (Filename.concat Host.root "results") "runs.json")
  in
  Results.append path { Results.name; trace = !trace; stamp; runs = results };
  summarize results;
  Printf.printf "set %S written to %s\n" name path;
  if List.exists (fun (r : Results.run) -> (not r.correct) || r.failed > 0) results then exit 1

(* --- compare --- *)

let select arg =
  let path, set =
    match String.rindex_opt arg ':' with
    | Some i when Sys.file_exists (String.sub arg 0 i) ->
      (String.sub arg 0 i, Some (String.sub arg (i + 1) (String.length arg - i - 1)))
    | _ -> (arg, None)
  in
  let sets =
    List.filter
      (fun (s : Results.set) ->
        (not s.trace) && match set with None -> true | Some n -> s.name = n)
      (Results.load path)
  in
  if sets = [] then die "%s: no untraced set%s" path
      (match set with Some n -> " named " ^ n | None -> "");
  sets

let compare_files old_arg new_arg =
  let old_sets = select old_arg and new_sets = select new_arg in
  (match Results.stamp_conflicts (old_sets @ new_sets) with
   | [] -> ()
   | fields ->
     Printf.eprintf "bench/e2e: the runs differ in %s; they cannot be compared\n"
       (String.concat ", " fields);
     exit 2);
  let runs sets = List.concat_map (fun (s : Results.set) -> s.runs) sets in
  let old = runs old_sets and new_ = runs new_sets in
  let pct x = 100.0 *. x in
  Printf.printf "%-14s %-12s %30s %30s %8s %6s  %s\n" "workload" "metric"
    "old median [q1, q3]" "new median [q1, q3]" "delta" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (r : Results.row) ->
      let q (a, m, b) = Printf.sprintf "%.5g [%.5g, %.5g]" m a b in
      if r.verdict = Results.Worse then incr worse;
      Printf.printf "%-14s %-12s %30s %30s %+7.2f%% %5.0f%%  %s\n" r.workload r.metric
        (q r.old_q) (q r.new_q) (pct r.delta) (pct r.bound) (Results.verdict_name r.verdict))
    (Results.rows ~old ~new_);
  List.iter
    (fun (w : Spec.workload) ->
      let count runs = List.length (List.filter (fun (r : Results.run) -> r.workload = w.name) runs) in
      let fo = Results.failures old w.name and fn = Results.failures new_ w.name in
      if count new_ > 0 && fn > 0 then begin
        let share f n = float_of_int f /. float_of_int (max 1 n) in
        let verdict = if share fn (count new_) > share fo (count old) then "worse" else "same" in
        if verdict = "worse" then incr worse;
        Printf.printf "%-14s %-12s %30d %30d %8s %6s  %s\n" w.name "failing runs" fo fn "" ""
          verdict
      end)
    Spec.workloads;
  if !worse > 0 then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_all args
  | [ "compare"; old_file; new_file ] -> compare_files old_file new_file
  | [ "spec" ] -> print_string (Spec.benchmark_json ())
  | ("-h" | "--help" | "help") :: _ -> print_string usage
  | [] -> die "nothing to do"
  | args -> run_one args
