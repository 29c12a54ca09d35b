(* tiled_edit: incremental extraction of a tiled die.  Each iteration
   is one edit cycle: move one contact inside its tile to a corner it
   never held (1 tile miss, 3 hits, stitch), then return to an earlier
   placement (4 hits, 0 CG iterations).  The only workload on the
   tiling, stitching and tile-store paths.

   Set-up extracts the first placement cold into an empty tile cache
   and, untiled, as the reference the tiled result must match. *)

module X = Sn_substrate.Extractor
module Mat = Sn_numerics.Mat

let config =
  { Sn_substrate.Grid.nx = Moves.grid; ny = Moves.grid; z_per_layer = Some [ 1; 1; 1; 1 ] }

let die =
  let d = float_of_int Moves.die in
  Sn_geometry.Rect.make 0.0 0.0 d d

let tech = Sn_tech.Tech.imec018

let extract ?cache ?tiles placement =
  X.extract ~config ?tiles ?cache ~tech ~die (Moves.substrate_ports placement)

let matrix (m : Sn_substrate.Macromodel.t) =
  let g = m.Sn_substrate.Macromodel.conductance in
  let n = Mat.rows g in
  Array.init (n * n) (fun k -> Mat.get g (k / n) (k mod n))

let max_rel_error a b =
  let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 b in
  let worst = ref 0.0 in
  Array.iteri (fun k x -> worst := Float.max !worst (Float.abs (x -. b.(k)) /. scale)) a;
  !worst

let agrees_with_untiled what placement tiled =
  let err = max_rel_error tiled (matrix (extract placement)) in
  Harness.check (err <= 1e-8) "%s placement: tiled vs untiled relative error %.3g" what err

let expect_counts what st ~hits ~misses =
  match st with
  | None -> Harness.fail "%s: no extraction statistics" what
  | Some st ->
    Harness.check
      (st.X.cache_hits = hits && st.X.cache_misses = misses
      && (misses > 0 || st.X.cg_iterations_total = 0))
      "%s: %d hits, %d misses, %d CG iterations (want %d hits, %d misses)" what
      st.X.cache_hits st.X.cache_misses st.X.cg_iterations_total hits misses

let setup ~seed ~rep =
  let dir = Host.fresh_dir (Printf.sprintf "tiled_edit-%d" rep) in
  let cache = Sn_substrate.Cache.create ~dir in
  let run placement =
    Trace.span "substrate" (fun () -> extract ~cache ~tiles:(2, 2) placement)
  in
  let moves = Moves.create () in
  let results = Hashtbl.create 64 in
  let first = matrix (run Moves.initial) in
  expect_counts "cold set-up" (X.last_stats ()) ~hits:0 ~misses:4;
  agrees_with_untiled "first" Moves.initial first;
  Hashtbl.replace results Moves.initial first;
  let rng = Random.State.make [| seed |] in
  let iterate _ =
    match Moves.edit moves rng with
    | None -> failwith "tiled_edit: every corner of every contact has been used"
    | Some edited ->
      let (e, st_edit, back, r, st_back), outcome =
        Harness.timed (fun () ->
            let e = run edited in
            let st_edit = Harness.record_extraction () in
            let back = Option.get (Moves.revisit moves rng) in
            let r = run back in
            (e, st_edit, back, r, Harness.record_extraction ()))
      in
      Harness.checked outcome (fun () ->
          expect_counts "edit" st_edit ~hits:3 ~misses:1;
          expect_counts "revisit" st_back ~hits:4 ~misses:0;
          Hashtbl.replace results edited (matrix e);
          Harness.check
            (Hashtbl.find_opt results back = Some (matrix r))
            "revisit differs from the first extraction of that placement")
  in
  let finish () =
    agrees_with_untiled "last" moves.Moves.current
      (Hashtbl.find results moves.Moves.current)
  in
  { Harness.iterate; finish; teardown = (fun () -> Host.rm_rf dir) }

let workload = { Harness.name = "tiled_edit"; warmup = 0; setup }
