(* Result files and the regression verdicts between two of them.

   A result file holds named sets; a set is the runs of one `run`
   invocation, stamped with where they were measured:
   {"schema": ..., "sets": [{"name", "trace", "stamp", "runs": [...]}]}.
   Each run keeps the one-line result its workload process printed. *)

module J = Sn_server.Json

let schema = "snoise-bench-e2e/1"

type run = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  result : J.t;  (** the line the workload process printed *)
}

type set = { name : string; trace : bool; stamp : J.t; runs : run list }

let field k j =
  match J.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "result file: missing %S in %s" k (J.to_string j))

let num k j =
  match J.to_float (field k j) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "result file: %S is not a number" k)

let run_of_result ~workload ~seed result =
  let metrics =
    match field "metrics" result with
    | J.Obj ms -> List.map (fun (k, v) -> (k, num "value" v)) ms
    | _ -> failwith "result file: metrics is not an object"
  in
  {
    workload;
    seed;
    correct = J.to_bool (field "correct" result) = Some true;
    attempted = int_of_float (num "attempted" result);
    failed = int_of_float (num "failed" result);
    metrics;
    result;
  }

let set_to_json s =
  J.Obj
    [
      ("name", J.Str s.name);
      ("trace", J.Bool s.trace);
      ("stamp", s.stamp);
      ( "runs",
        J.Arr
          (List.map
             (fun (r : run) ->
               J.Obj
                 [
                   ("workload", J.Str r.workload);
                   ("seed", J.Num (float_of_int r.seed));
                   ("result", r.result);
                 ])
             s.runs) );
    ]

let set_of_json j =
  let runs =
    match J.to_list (field "runs" j) with
    | Some rs ->
      List.map
        (fun r ->
          run_of_result
            ~workload:(Option.get (J.to_str (field "workload" r)))
            ~seed:(int_of_float (num "seed" r))
            (field "result" r))
        rs
    | None -> failwith "result file: runs is not an array"
  in
  {
    name = Option.value (J.to_str (field "name" j)) ~default:"";
    trace = J.to_bool (field "trace" j) = Some true;
    stamp = field "stamp" j;
    runs;
  }

let load path =
  match J.parse (Host.read_file path) with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j -> (
    match J.to_list (field "sets" j) with
    | Some sets -> List.map set_of_json sets
    | None -> failwith (path ^ ": sets is not an array"))

(* One line per set, so committed files diff set by set. *)
let save path sets =
  Host.write_file path
    (Printf.sprintf "{\"schema\": %s, \"sets\": [\n%s\n]}\n"
       (J.to_string (J.Str schema))
       (String.concat ",\n" (List.map (fun s -> J.to_string (set_to_json s)) sets)))

(* Add [set] to the file at [path], replacing a set of the same name. *)
let append path set =
  let existing = if Sys.file_exists path then load path else [] in
  save path (List.filter (fun s -> s.name <> set.name) existing @ [ set ])

(* Stamp fields that change what a run measures: the run length moves
   the warm-up's share and how many operations a slow workload
   completes; the core count and the pool width move every parallel
   section. *)
let measuring_conditions = [ "run_seconds"; "nproc"; "pool_jobs" ]

(* The conditions on which [sets] do not all agree; a field a stamp
   lacks counts as a value of its own. *)
let stamp_conflicts sets =
  List.filter
    (fun k ->
      let values =
        List.sort_uniq String.compare
          (List.map
             (fun s -> J.to_string (Option.value (J.member k s.stamp) ~default:J.Null))
             sets)
      in
      List.length values > 1)
    measuring_conditions

(* ------------------------------------------------------------------ *)
(* verdicts *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : string;
  old_q : float * float * float;  (** quartiles; the middle one is the median *)
  new_q : float * float * float;
  delta : float;  (** (new - old) / old median *)
  bound : float;
  verdict : verdict;
}

let spread (q1, med, q3) = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

(* A metric is worse when its median moved the wrong way by more than
   the bound; unresolved when either side's quartile spread exceeds
   the bound, unless every new run beats every old one; better when it
   moved the right way by more than the old runs' own spread. *)
let verdict (m : Spec.end_to_end) ~old ~new_ =
  let old_q = Stats.quartiles old and new_q = Stats.quartiles new_ in
  let _, om, _ = old_q and _, nm, _ = new_q in
  let delta = if om = 0.0 then 0.0 else (nm -. om) /. Float.abs om in
  let gain = match m.better with Spec.Lower -> -.delta | Spec.Higher -> delta in
  let beats a b = match m.better with Spec.Lower -> a < b | Spec.Higher -> a > b in
  let all_better =
    List.for_all (fun n -> List.for_all (fun o -> beats n o) old) new_
  in
  let v =
    if Float.max (spread old_q) (spread new_q) > m.bound then
      if all_better then Better else Unresolved
    else if -.gain > m.bound then Worse
    else if gain > spread old_q && gain > 0.0 then Better
    else Same
  in
  (old_q, new_q, delta, v)

let metric_values runs workload name =
  List.filter_map
    (fun (r : run) -> if r.workload = workload then List.assoc_opt name r.metrics else None)
    runs

let rows ~old ~new_ =
  List.concat_map
    (fun (w : Spec.workload) ->
      List.filter_map
        (fun (m : Spec.end_to_end) ->
          match (metric_values old w.name m.name, metric_values new_ w.name m.name) with
          | [], _ | _, [] -> None
          | o, n ->
            let old_q, new_q, delta, verdict = verdict m ~old:o ~new_:n in
            Some { workload = w.name; metric = m.name; old_q; new_q; delta; bound = m.bound; verdict })
        Spec.end_to_end)
    Spec.workloads

(* Runs that failed a check or an operation, per workload. *)
let failures runs workload =
  List.length
    (List.filter
       (fun (r : run) -> r.workload = workload && ((not r.correct) || r.failed > 0))
       runs)
