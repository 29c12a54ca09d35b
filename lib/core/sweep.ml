(* Sweep combinators: thin, order-preserving adapters from the
   experiment drivers onto the shared worker pool.  All the
   scheduling, stats and width policy live in Sn_engine.Pool; this
   module only chooses the pool and shapes the work. *)

module Pool = Sn_engine.Pool
module Diag = Sn_engine.Diag

let log_src = Logs.Src.create "sn.core.sweep" ~doc:"sweep combinators"

module Log = (val Logs.src_log log_src : Logs.LOG)

let resolve = function Some p -> p | None -> Pool.default ()

let map_points ?pool f points = Pool.map_list (resolve pool) f points
let map_array ?pool f points = Pool.map_array (resolve pool) f points

let grid ?pool f xs ys =
  let cells = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs in
  map_points ?pool (fun (x, y) -> (x, y, f x y)) cells

let corners ?pool f cs = map_points ?pool f cs

(* ------------------------------------------------------------------ *)
(* fault-tolerant variants *)

let diag_of_exn = function
  | Diag.Error d -> d
  | e -> Diag.Bad_input { loc = Diag.loc "sweep"; what = Printexc.to_string e }

(* Pool workers capture per-point exceptions; each failed point then
   gets exactly one sequential retry on the calling domain — with the
   full DC rescue ladder available — before it is written off as an
   [Error] carrying the diagnostic.  The retry is sequential on
   purpose: a point that failed under parallel load re-runs in the
   quietest environment we can offer. *)
let map_array_result ?pool f points =
  let p = resolve pool in
  Pool.map_array_result p f points
  |> Array.mapi (fun i r ->
         match r with
         | Ok v -> Ok v
         | Error first ->
           Log.info (fun m ->
               m "sweep point %d failed (%s); retrying sequentially" i
                 (Printexc.to_string first));
           (try Ok (f points.(i))
            with e ->
              let d = diag_of_exn e in
              Log.warn (fun m ->
                  m "sweep point %d failed permanently: %a" i Diag.pp d);
              Error d))

let map_points_result ?pool f points =
  Array.to_list (map_array_result ?pool f (Array.of_list points))

let grid_result ?pool f xs ys =
  let cells = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs in
  List.map2
    (fun (x, y) r -> (x, y, r))
    cells
    (map_points_result ?pool (fun (x, y) -> f x y) cells)
