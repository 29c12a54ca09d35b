(* Worker pool and sweep-combinator tests.

   The load-bearing property is determinism: a parallel sweep must be
   byte-for-byte identical to the sequential (jobs = 1) path, because
   the figure reports are diffed against the paper's numbers.  The
   determinism tests therefore render full experiment reports at two
   pool widths and compare the formatted strings.  Experiment fixtures
   use a reduced substrate grid so the double runs stay cheap. *)

module Pool = Sn_engine.Pool
module Sweep = Snoise.Sweep
module E = Snoise.Experiments
module Flow = Snoise.Flow

(* ------------------------------------------------------------------ *)
(* pool mechanics *)

let test_map_preserves_order () =
  let pool = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let xs = Array.init 257 (fun i -> i) in
  let expect = Array.map (fun i -> (i * i) - (3 * i)) xs in
  Alcotest.(check (array int))
    "map_array in input order" expect
    (Pool.map_array pool (fun i -> (i * i) - (3 * i)) xs);
  Alcotest.(check (list string))
    "map_list in input order"
    [ "0"; "1"; "2"; "3"; "4" ]
    (Pool.map_list pool string_of_int [ 0; 1; 2; 3; 4 ])

let test_jobs1_is_sequential () =
  let pool = Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* with one worker every task must run on the calling domain *)
  let self = Domain.self () in
  let doms = Pool.map_list pool (fun _ -> Domain.self ()) [ 1; 2; 3; 4 ] in
  List.iter
    (fun d -> Alcotest.(check bool) "ran on calling domain" true (d = self))
    doms;
  let s = Pool.stats pool in
  Alcotest.(check int) "jobs" 1 s.Pool.jobs;
  Alcotest.(check int) "tasks" 4 s.Pool.tasks_run

let test_exception_propagates () =
  let pool = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.check_raises "task exception re-raised" (Failure "boom")
    (fun () ->
      ignore
        (Pool.map_list pool
           (fun i -> if i = 13 then failwith "boom" else i)
           (List.init 32 Fun.id)));
  (* the pool must survive a failed batch *)
  Alcotest.(check (list int)) "pool usable after exception" [ 2; 4 ]
    (Pool.map_list pool (fun i -> 2 * i) [ 1; 2 ])

let test_pool_reuse_across_sweeps () =
  let pool = Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Pool.reset_stats pool;
  let a = Pool.map_list pool (fun i -> i + 1) (List.init 10 Fun.id) in
  let b = Pool.map_list pool (fun i -> i * 2) (List.init 7 Fun.id) in
  Alcotest.(check (list int)) "first sweep" (List.init 10 (fun i -> i + 1)) a;
  Alcotest.(check (list int)) "second sweep" (List.init 7 (fun i -> i * 2)) b;
  let s = Pool.stats pool in
  Alcotest.(check int) "batches" 2 s.Pool.batches;
  Alcotest.(check int) "tasks accumulate" 17 s.Pool.tasks_run;
  Alcotest.(check bool) "imbalance finite" true
    (Float.is_finite (Pool.imbalance s))

let test_nested_run_inlines () =
  let pool = Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* a sweep point that itself sweeps must not deadlock *)
  let r =
    Pool.map_list pool
      (fun i -> Pool.map_list pool (fun j -> (10 * i) + j) [ 0; 1 ])
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list (list int)))
    "nested sweep correct"
    [ [ 10; 11 ]; [ 20; 21 ]; [ 30; 31 ] ]
    r

let test_jobs_parsing () =
  (* 0, negative and garbage fall back to the default; huge clamps *)
  Alcotest.(check int) "garbage" 3 (Pool.jobs_of_string ~default:3 "lots");
  Alcotest.(check int) "empty" 3 (Pool.jobs_of_string ~default:3 "");
  Alcotest.(check int) "zero" 3 (Pool.jobs_of_string ~default:3 "0");
  Alcotest.(check int) "negative" 3 (Pool.jobs_of_string ~default:3 "-2");
  Alcotest.(check int) "trimmed" 8 (Pool.jobs_of_string ~default:3 " 8 ");
  Alcotest.(check int) "clamped high" Pool.max_jobs
    (Pool.jobs_of_string ~default:3 "100000");
  Alcotest.(check int) "default itself clamps" 1
    (Pool.jobs_of_string ~default:(-4) "junk");
  Alcotest.(check bool) "recommended in range" true
    (let r = Pool.recommended_jobs () in
     r >= 1 && r <= Pool.max_jobs)

let test_grid_row_major () =
  let pool = Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check (list (triple int string string)))
    "grid order and values"
    [ (1, "a", "1a"); (1, "b", "1b"); (2, "a", "2a"); (2, "b", "2b") ]
    (Sweep.grid ~pool
       (fun x y -> string_of_int x ^ y)
       [ 1; 2 ] [ "a"; "b" ])

(* ------------------------------------------------------------------ *)
(* experiment determinism: parallel report output must be the byte
   sequence the sequential path produces *)

(* reduced-cost options: coarser substrate grid than the default 48x48 *)
let fast_options =
  { Flow.default_options with
    Flow.grid =
      { Sn_substrate.Grid.nx = 24; ny = 24; z_per_layer = Some [ 1; 2; 2; 1 ] }
  }

let fast_f_noise = [| 1.0e6; 4.0e6; 15.0e6 |]

let render pp v =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  pp fmt v;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* [f] run with [fast_options] on a fresh pool of width [jobs] *)
let with_jobs jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  f { fast_options with Flow.pool = Some pool }

let test_fig7_parallel_identical () =
  let run options = render Snoise.Report.fig7 (E.fig7 ~options ()) in
  let sequential = with_jobs 1 run in
  let parallel = with_jobs 4 run in
  Alcotest.(check string) "fig7 report byte-identical" sequential parallel

let test_fig8_parallel_identical () =
  let run options =
    render Snoise.Report.fig8 (E.fig8 ~options ~f_noise:fast_f_noise ())
  in
  let sequential = with_jobs 1 run in
  let parallel = with_jobs 4 run in
  Alcotest.(check string) "fig8 report byte-identical" sequential parallel

let test_fig9_parallel_identical () =
  let run options =
    render Snoise.Report.fig9 (E.fig9 ~options ~f_noise:fast_f_noise ())
  in
  let sequential = with_jobs 1 run in
  let parallel = with_jobs 4 run in
  Alcotest.(check string) "fig9 report byte-identical" sequential parallel

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "map preserves order" `Quick
          test_map_preserves_order;
        Alcotest.test_case "jobs=1 runs on calling domain" `Quick
          test_jobs1_is_sequential;
        Alcotest.test_case "task exception propagates" `Quick
          test_exception_propagates;
        Alcotest.test_case "reuse across two sweeps" `Quick
          test_pool_reuse_across_sweeps;
        Alcotest.test_case "nested run inlines" `Quick test_nested_run_inlines;
        Alcotest.test_case "SNOISE_JOBS parsing edge cases" `Quick
          test_jobs_parsing;
        Alcotest.test_case "grid is row-major" `Quick test_grid_row_major;
      ] );
    ( "pool.determinism",
      [
        Alcotest.test_case "fig7 parallel = sequential" `Slow
          test_fig7_parallel_identical;
        Alcotest.test_case "fig8 parallel = sequential" `Slow
          test_fig8_parallel_identical;
        Alcotest.test_case "fig9 parallel = sequential" `Slow
          test_fig9_parallel_identical;
      ] );
  ]
