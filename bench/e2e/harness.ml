(* Runs one workload in this process: set-up (repeated), warm-up, a
   timed closed loop for the requested seconds, final checks, then a
   one-line JSON result on stdout. *)

module J = Sn_server.Json
module Pool = Sn_engine.Pool

(* What one iteration of a workload did.  [latencies] holds one entry
   per completed operation (a served_mix round completes four);
   [busy] is the time spent inside the operations, checks excluded. *)
type outcome = {
  latencies : float list;
  busy : float;
  attempted : int;
  failed : int;
}

type instance = {
  iterate : int -> outcome;
  finish : unit -> unit;  (** end-of-run checks; report failures *)
  teardown : unit -> unit;
}

type workload = {
  name : string;
  warmup : int;  (** untimed iterations after set-up *)
  setup : seed:int -> rep:int -> instance;
}

(* Check failures, counted for the run and shown (the first few) on
   stderr. *)
let check_failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr check_failures;
      if !check_failures <= 5 then prerr_endline ("check failed: " ^ msg))
    fmt

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

let now = Unix.gettimeofday

(* Counters of the layers that keep their own (pool, GC, tile cache),
   read around the timed part of each traced iteration. *)
type snapshot = { gc : Gc.stat; cache : Sn_substrate.Cache.counters }

let snapshot () =
  Pool.reset_stats (Pool.default ());
  { gc = Gc.quick_stat (); cache = Sn_substrate.Cache.counters () }

let record_layers before =
  let after = Gc.quick_stat () in
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  let bytes = (words after -. words before.gc) *. float_of_int (Sys.word_size / 8) in
  Trace.set "gc.alloc_mb" (bytes /. 1e6);
  Trace.set "gc.major_collections"
    (float_of_int (after.major_collections - before.gc.major_collections));
  let c = Sn_substrate.Cache.counters () in
  Trace.set "substrate.cache_hits"
    (float_of_int (c.Sn_substrate.Cache.hits - before.cache.Sn_substrate.Cache.hits));
  Trace.set "substrate.cache_lookups"
    (float_of_int (c.Sn_substrate.Cache.lookups - before.cache.Sn_substrate.Cache.lookups));
  let ps = Pool.stats (Pool.default ()) in
  Trace.set "pool.tasks" (float_of_int ps.Pool.tasks_run);
  Trace.set "pool.busy_ms" (Pool.cpu_seconds ps *. 1e3);
  Trace.set "pool.imbalance" (Pool.imbalance ps)

(* the timed window of the current iteration *)
let op_window = ref (0.0, 0.0)

(* [measure f] runs the timed part of an iteration — the work a user
   waits for, without the benchmark's checks — and returns its result
   with its start and stop times. *)
let measure f =
  let before = if !Trace.enabled then Some (snapshot ()) else None in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  Option.iter record_layers before;
  op_window := (t0, t1);
  (r, t0, t1)

(* One operation timed on its own: the common case. *)
let timed f =
  let r, t0, t1 = measure f in
  (r, { latencies = [ t1 -. t0 ]; busy = t1 -. t0; attempted = 1; failed = 0 })

(* Run [checks]: 1 when any of them failed, else 0. *)
let failed_checks checks =
  let before = !check_failures in
  checks ();
  if !check_failures > before then 1 else 0

(* [o] with its operation counted as failed when [checks] fail. *)
let checked o checks = { o with failed = o.failed + failed_checks checks }

(* Record the statistics of the extraction that just ran, and return
   them. *)
let record_extraction () =
  let module X = Sn_substrate.Extractor in
  let stats = X.last_stats () in
  Option.iter
    (fun (st : X.stats) ->
      Trace.add "substrate.assemble_ms" (st.assemble_seconds *. 1e3);
      Trace.add "substrate.reduce_ms" (st.reduce_seconds *. 1e3);
      Trace.add "substrate.stitch_ms" (st.stitch_seconds *. 1e3);
      Trace.add "substrate.cg_iterations" (float_of_int st.cg_iterations_total);
      Trace.set "substrate.cells" (float_of_int st.grid_cells);
      Trace.set "substrate.interface_nodes" (float_of_int st.interface_nodes))
    stats;
  stats

(* The per-iteration values of one traced iteration, keyed by metric or
   counter name. *)
let iteration_values () =
  let op_start, op_stop = !op_window in
  let spans, counters = Trace.take_iteration () in
  let selfs = Trace.self_times spans in
  let from_spans =
    List.filter_map
      (fun (m : Spec.per_layer) ->
        match m.source with
        | Self key ->
          let s = Option.value (List.assoc_opt key selfs) ~default:0.0 in
          Some (m.name, s *. Spec.unit_scale m.unit)
        | _ -> None)
      Spec.per_layer
  in
  let covered =
    List.fold_left
      (fun acc (s : Trace.span) ->
        if s.parent < 0 && s.start >= op_start && s.stop <= op_stop then
          acc +. Trace.duration s
        else acc)
      0.0 spans
  in
  let coverage = ("trace.coverage", covered /. (op_stop -. op_start)) in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (coverage :: from_spans @ counters);
  tbl

(* [whole_run] gives the values of the [Whole_run] metrics. *)
let per_layer_metrics iterations ~whole_run =
  let value tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
  let sum k = List.fold_left (fun acc t -> acc +. value t k) 0.0 iterations in
  List.map
    (fun (m : Spec.per_layer) ->
      let per_iteration () = List.map (fun t -> value t m.name) iterations in
      let v =
        match m.source with
        | _ when iterations = [] -> 0.0
        | Self _ -> Stats.median (per_iteration ())
        | Median -> (
          match List.filter_map (fun t -> Hashtbl.find_opt t m.name) iterations with
          | [] -> 0.0
          | recorded -> Stats.median recorded)
        | Mean -> Stats.mean (per_iteration ())
        | Pooled (num, den) ->
          let d = sum den in
          if d > 0.0 then sum num /. d else 0.0
        | Whole_run -> Option.value (List.assoc_opt m.name whole_run) ~default:0.0
      in
      (m.name, m.unit, v))
    Spec.per_layer

let result_json ~correct ~attempted ~failed metrics =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Num (float_of_int attempted));
      ("failed", J.Num (float_of_int failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
             metrics) );
    ]

let run (w : workload) ~seed ~seconds ~trace =
  Host.guard_environment ();
  (* each repetition is a full set-up; the previous one is torn down
     (untimed) first, and the last one is kept for the run *)
  let setup_times = ref [] and last = ref None in
  for rep = 0 to Spec.setup_repeats - 1 do
    Option.iter (fun (inst : instance) -> inst.teardown ()) !last;
    let t0 = now () in
    last := Some (w.setup ~seed ~rep);
    setup_times := (now () -. t0) :: !setup_times
  done;
  let instance = Option.get !last in
  let setup_s = Stats.median !setup_times in
  let warm_failed = ref 0 in
  for i = 1 to w.warmup do
    warm_failed := !warm_failed + (instance.iterate (-i)).failed
  done;
  let latencies = ref [] and busy = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let traced_ops = ref [] and untraced_ops = ref [] and layers = ref [] in
  let t_start = now () in
  let i = ref 0 in
  (* a traced run alternates traced and untraced iterations, so the
     tracing overhead is measured inside the same run *)
  while now () -. t_start < seconds || (trace && !i < 2) do
    let traced = trace && !i mod 2 = 1 in
    Trace.enabled := traced;
    Trace.iteration := !i;
    let t0 = now () in
    let o =
      try instance.iterate !i
      with e ->
        fail "iteration %d raised %s" !i (Printexc.to_string e);
        { latencies = []; busy = now () -. t0; attempted = 1; failed = 1 }
    in
    if traced then begin
      layers := iteration_values () :: !layers;
      traced_ops := o.busy :: !traced_ops
    end
    else untraced_ops := o.busy :: !untraced_ops;
    Trace.enabled := false;
    latencies := List.rev_append o.latencies !latencies;
    busy := !busy +. o.busy;
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed;
    incr i
  done;
  instance.finish ();
  instance.teardown ();
  let correct = !check_failures = 0 && !failed = 0 && !warm_failed = 0 in
  let samples = List.length !latencies in
  Printf.eprintf "%s seed %d: setup %.3f s (median of %d), %d iterations, %d ops, %d failed"
    w.name seed setup_s Spec.setup_repeats !i samples !failed;
  if samples > 0 then begin
    Printf.eprintf ", p50 %.3f ms" (1e3 *. Stats.median !latencies);
    match Stats.p90 !latencies with
    | Some p -> Printf.eprintf ", p90 %.3f ms" (1e3 *. p)
    | None -> Printf.eprintf ", p90 n/a (fewer than 100 samples)"
  end;
  prerr_newline ();
  let metrics =
    if trace then begin
      let overhead =
        match (!traced_ops, !untraced_ops) with
        | [], _ | _, [] -> 0.0
        | t, u -> Stats.median t /. Stats.median u
      in
      let path =
        Filename.concat (Filename.concat Host.root "trace") (w.name ^ ".json")
      in
      Host.write_file path (J.to_string (Trace.chrome_json (Trace.all_spans ())));
      Printf.eprintf "trace written to %s\n%!" path;
      let peak_heap_mb =
        float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
      in
      per_layer_metrics (List.rev !layers)
        ~whole_run:[ ("trace.overhead", overhead); ("gc.peak_heap_mb", peak_heap_mb) ]
    end
    else begin
      let safe f = if samples = 0 then 0.0 else f () in
      List.map
        (fun (m : Spec.end_to_end) ->
          let v =
            match m.name with
            | "setup_s" -> setup_s
            | "op_p50_ms" -> safe (fun () -> 1e3 *. Stats.median !latencies)
            | "ops_per_s" -> safe (fun () -> float_of_int samples /. !busy)
            | other -> invalid_arg ("Harness.run: no rule for metric " ^ other)
          in
          (m.name, m.unit, v))
        Spec.end_to_end
    end
  in
  print_endline
    (J.to_string
       (result_json ~correct ~attempted:(max 1 !attempted) ~failed:!failed
          metrics))
