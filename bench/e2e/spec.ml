(* The benchmark's declaration: workloads, metrics and bounds.  This
   is the only copy: BENCHMARK.json at the repository root is printed
   from it (`main.exe spec`), and `dune runtest` fails when the
   committed file differs (`dune promote` updates it). *)

let run_seconds = 15

(* Set-up is repeated this many times per run and reported as the
   median, so work moved into set-up shows without one slow repetition
   deciding the number. *)
let setup_repeats = 3

let command =
  [ "dune"; "exec"; "--no-print-directory"; "--display=quiet";
    "./bench/e2e/main.exe"; "--" ]

let paths = [ "bench/e2e" ]

type workload = { name : string; why : string }

let workloads =
  [
    { name = "paper_figures";
      why =
        "Figs 3 and 7-10 plus the section 3 numbers from an empty tile \
         cache: two cold untiled MG-CG extractions carry the time; engine \
         and server are nearly idle" };
    { name = "ground_whatif";
      why =
        "Fig. 10 loop on a warm tile cache: VCO flow at a seeded ground \
         width, 64-point AC and spur; 0 CG iterations, so assembly, lint, \
         DC and AC carry the time" };
    { name = "served_mix";
      why =
        "Synthetic load of 4 closed-loop clients on the in-process service \
         (ac, noise, op, spur on the merged VCO deck); every 5th round is \
         all plan misses: admission, plan cache, batching, encoding" };
    { name = "tiled_edit";
      why =
        "Move one port of a 2x2-tiled 40x40 die, then revisit an earlier \
         placement: 1 tile miss per edit, hits, stitching and the tile \
         store carry the time" };
  ]

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type end_to_end = { name : string; unit : string; better : better; bound : float }

(* On the shared 2-vCPU VM the baseline was measured on, the host's
   speed drifts: a fixed single-threaded loop varies by 10% from one
   2 s sample to the next, and the quartile spread of 10 identical
   runs ranged from 1.4% on a quiet host to 27% on a loaded one.  The
   bounds are therefore the widest BENCHMARK.json may declare, 0.25.
   Peak memory is not gated: it is mostly GC slack during the cold
   extractions and moves by up to 10% between identical runs; the
   traced run reports it per layer. *)
let end_to_end =
  [
    { name = "setup_s"; unit = "s"; better = Lower; bound = 0.25 };
    { name = "op_p50_ms"; unit = "ms"; better = Lower; bound = 0.25 };
    { name = "ops_per_s"; unit = "1/s"; better = Higher; bound = 0.25 };
  ]

(* How one per-layer metric is reduced from the traced iterations of a
   run.  Times are medians per iteration; counts are means; ratios are
   pooled over the whole run, because a per-iteration ratio of a few
   requests is mostly 0 or 1. *)
type source =
  | Self of string
      (** self time of the spans with this key, per iteration, scaled
          to the metric's unit; median *)
  | Median
      (** a per-iteration value recorded by the workload; median over
          the iterations that recorded it *)
  | Mean  (** a per-iteration count recorded by the workload; mean *)
  | Pooled of string * string
      (** sum of the first counter over sum of the second; 0 when the
          second never moved *)
  | Whole_run  (** one value the harness computes for the whole run *)

type per_layer = { name : string; unit : string; better : better; source : source }

let self name unit key = { name; unit; better = Lower; source = Self key }
let median ?(better = Lower) name unit = { name; unit; better; source = Median }
let mean name unit = { name; unit; better = Lower; source = Mean }
let pooled name unit num den = { name; unit; better = Higher; source = Pooled (num, den) }

let per_layer =
  [
    self "experiments.fig3_ms" "ms" "experiments.fig3";
    self "experiments.sec3_ms" "ms" "experiments.sec3";
    self "experiments.fig7_ms" "ms" "experiments.fig7";
    self "experiments.fig8_ms" "ms" "experiments.fig8";
    self "experiments.fig9_ms" "ms" "experiments.fig9";
    self "experiments.fig10_ms" "ms" "experiments.fig10";
    self "flow.build_vco_ms" "ms" "flow.build_vco";
    self "flow.transfers_ms" "ms" "flow.transfers";
    self "flow.spur_us" "us" "flow.spur";
    self "layout.self_ms" "ms" "layout";
    self "interconnect.self_ms" "ms" "interconnect";
    mean "interconnect.wires" "count";
    self "substrate.self_ms" "ms" "substrate";
    median "substrate.assemble_ms" "ms";
    median "substrate.reduce_ms" "ms";
    median "substrate.stitch_ms" "ms";
    mean "substrate.cg_iterations" "count";
    mean "substrate.cells" "count";
    mean "substrate.interface_nodes" "count";
    pooled "substrate.cache_hit_ratio" "ratio" "substrate.cache_hits"
      "substrate.cache_lookups";
    self "merge.self_ms" "ms" "merge";
    mean "merge.elements" "count";
    self "analysis.self_ms" "ms" "analysis";
    self "engine.compile_ms" "ms" "engine.compile";
    self "engine.dc_ms" "ms" "engine.dc";
    self "engine.ac_ms" "ms" "engine.ac";
    mean "engine.dc_attempts" "count";
    median "engine.ac_us_per_point" "us";
    self "server.admit_us" "us" "server.admit";
    self "server.drain_ms" "ms" "server.drain";
    self "server.encode_us" "us" "server.encode";
    median "server.read_round_ms" "ms";
    median "server.write_round_ms" "ms";
    mean "server.reply_kb" "kB";
    pooled "server.batch_mean" "count" "server.batched" "server.replies";
    mean "server.refused" "count";
    pooled "server.plan_hit_ratio" "ratio" "server.plan_hits"
      "server.plan_lookups";
    pooled "server.bias_hit_ratio" "ratio" "server.bias_hits"
      "server.bias_lookups";
    pooled "server.flow_hit_ratio" "ratio" "server.flow_hits"
      "server.flow_lookups";
    mean "pool.tasks" "count";
    median "pool.busy_ms" "ms";
    median "pool.imbalance" "ratio";
    median "gc.alloc_mb" "MB";
    mean "gc.major_collections" "count";
    { name = "gc.peak_heap_mb"; unit = "MB"; better = Lower; source = Whole_run };
    { name = "trace.overhead"; unit = "ratio"; better = Lower; source = Whole_run };
    median ~better:Higher "trace.coverage" "ratio";
    median ~better:Higher "trace.replica_coverage" "ratio";
  ]

let unit_scale = function
  | "s" -> 1.0
  | "ms" -> 1e3
  | "us" -> 1e6
  | u -> invalid_arg ("Spec.unit_scale: not a time unit: " ^ u)

(* BENCHMARK.json: one member per line, one workload or metric per
   line. *)
let benchmark_json () =
  let module J = Sn_server.Json in
  let str s = J.to_string (J.Str s) in
  let obj fields =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
  in
  let inline xs = "[" ^ String.concat ", " (List.map str xs) ^ "]" in
  let rows xs = "[\n    " ^ String.concat ",\n    " xs ^ "\n  ]" in
  let metric name unit better extra =
    obj ([ ("name", str name); ("unit", str unit); ("better", str (better_name better)) ] @ extra)
  in
  let members =
    [
      ("command", inline command);
      ("paths", inline paths);
      ("run_seconds", string_of_int run_seconds);
      ( "workloads",
        rows
          (List.map (fun (w : workload) -> obj [ ("name", str w.name); ("why", str w.why) ]) workloads)
      );
      ( "end_to_end",
        rows
          (List.map
             (fun (m : end_to_end) ->
               metric m.name m.unit m.better [ ("bound", J.to_string (J.Num m.bound)) ])
             end_to_end) );
      ( "per_layer",
        rows (List.map (fun (m : per_layer) -> metric m.name m.unit m.better []) per_layer) );
    ]
  in
  "{\n"
  ^ String.concat ",\n" (List.map (fun (k, v) -> "  " ^ str k ^ ": " ^ v) members)
  ^ "\n}\n"
