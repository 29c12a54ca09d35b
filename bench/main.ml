(* Timing-ratio gates.

   Each row times two code paths that do the same job and bounds the
   ratio of their wall times.  [main.exe] runs the full workloads
   ([make bench]); [main.exe small] runs reduced ones, which CI runs,
   and skips the rows whose bound only holds at full size.  The
   program prints one line per gate, exits 1 when any gate fails and
   writes no file.  Correctness (agreement, byte identity, cache
   counters, cancellation) is asserted by the test suite, not here.

   Run from the repository root: the pre-flight row reads the shipped
   example decks. *)

module Flow = Snoise.Flow
module Sub = Sn_substrate
module El = Sn_circuit.Element
module Json = Sn_json.Json

type bound = At_least of float | At_most of float

type gate = {
  name : string;
  measure : small:bool -> float * string;
      (** the ratio, and a line saying what was timed *)
  small_bound : bound option;  (** [None]: not measured in small mode *)
  full_bound : bound;
}

(* the shortest wall time of [reps] runs of [f] *)
let seconds ?(reps = 1) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* a resistor ladder of [stages] sections, each loaded by 1 pF, driven
   through 50 ohm and terminated in 1 kOhm *)
let rc_ladder stages =
  let node k = if k = 0 then "0" else Printf.sprintf "n%d" k in
  El.Vsource
    { name = "vin"; np = "in"; nn = "0"; wave = Sn_circuit.Waveform.dc 1.0;
      ac_mag = 1.0 }
  :: El.Resistor { name = "rin"; n1 = "in"; n2 = node 1; ohms = 50.0 }
  :: El.Resistor { name = "rload"; n1 = node stages; n2 = "0"; ohms = 1000.0 }
  :: List.concat
       (List.init stages (fun k ->
            let k = k + 1 in
            [ El.Resistor
                { name = Printf.sprintf "r%d" k; n1 = node k;
                  n2 = node (k + 1); ohms = 100.0 +. float_of_int k };
              El.Capacitor
                { name = Printf.sprintf "c%d" k; n1 = node k; n2 = "0";
                  farads = 1.0e-12 } ]))

(* ------------------------------------------------------------------ *)
(* MG-CG extraction vs direct star-mesh elimination, both on one 48^2
   grid.  Full mode only: the direct path takes tens of seconds. *)

let mgcg_vs_direct ~small:_ =
  let module G = Sn_geometry in
  let module Port = Sub.Port in
  let tech = Sn_tech.Tech.imec018 in
  let die = G.Rect.make 0.0 0.0 400.0 400.0 in
  let ports =
    [ Port.v ~name:"agg" ~kind:Port.Resistive [ G.Rect.make 40.0 40.0 120.0 120.0 ];
      Port.v ~name:"vic" ~kind:Port.Resistive [ G.Rect.make 280.0 280.0 360.0 360.0 ];
      Port.v ~name:"ring" ~kind:Port.Resistive [ G.Rect.make 40.0 280.0 120.0 360.0 ];
      Port.v ~name:"tap" ~kind:Port.Resistive [ G.Rect.make 280.0 40.0 360.0 120.0 ];
      Port.v ~name:"probe" ~kind:Port.Probe [ G.Rect.make 180.0 180.0 220.0 220.0 ] ]
  in
  let n = 48 in
  let config = { Sub.Grid.nx = n; ny = n; z_per_layer = Some [ 1; 1; 1; 1 ] } in
  let t_direct =
    seconds (fun () ->
        Sn_oracle.Elimination.reduce_grid ~config ~tech ~die ports)
  in
  let t_mg = seconds (fun () -> Sub.Extractor.extract ~config ~tech ~die ports) in
  ( t_direct /. t_mg,
    Printf.sprintf "%dx%d: MG-CG %.3f s, direct %.2f s" n n t_mg t_direct )

(* ------------------------------------------------------------------ *)
(* Resident service: the same ac request served warm (plan, bias and AC
   factorization cached) vs cold (plan cache cleared before each) *)

let warm_vs_cold ~small =
  let module Sv = Sn_server.Service in
  let stages = if small then 80 else 160 in
  let deck =
    let b = Buffer.create 8192 in
    Buffer.add_string b
      "* bench service RC ladder\nv1 in 0 dc 1 ac 1\nrin in n1 50\n";
    for k = 1 to stages do
      let n2 = if k = stages then "out" else Printf.sprintf "n%d" (k + 1) in
      Printf.bprintf b "r%d n%d %s %d\nc%d n%d 0 1e-12\n" k k n2 (100 + k) k k
    done;
    Buffer.add_string b "rload out 0 1k\n.end\n";
    Buffer.contents b
  in
  let line =
    Printf.sprintf
      {|{"id": 1, "verb": "ac", "deck": %s, "params": {"freqs": [1e6, 5e6, 2e7], "nodes": ["out"]}}|}
      (Json.to_string (Json.Str deck))
  in
  let svc = Sv.create () in
  let serve () =
    match Sv.handle svc ~client:1 line with
    | [ r ] when Json.member "error" r = None -> ()
    | rs ->
      failwith
        ("request refused: " ^ String.concat "; " (List.map Json.to_string rs))
  in
  let per_request n f =
    seconds (fun () ->
        for _ = 1 to n do
          f ()
        done)
    /. float_of_int n
  in
  let cold =
    per_request (if small then 5 else 10) (fun () ->
        Sn_server.Plan_cache.clear (Sv.cache svc);
        serve ())
  in
  serve ();
  let warm = per_request (if small then 50 else 200) serve in
  ( cold /. warm,
    Printf.sprintf "%d-stage ladder: cold %.2f ms, warm %.3f ms per request"
      stages (cold *. 1e3) (warm *. 1e3) )

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation: a warm AC sweep with an unreachable
   deadline armed vs none.  Full mode only. *)

let cancellation_overhead ~small:_ =
  let stages = 120 in
  let nl =
    Sn_circuit.Netlist.create ~title:"bench cancellation ladder"
      (rc_ladder stages)
  in
  let acp = Flow.compiled_ac_plan (Flow.compile_deck ~lint:false nl) in
  let freqs =
    Array.init 256 (fun i ->
        1.0e6 *. (1.0 +. float_of_int i))
  in
  let nodes = [ Printf.sprintf "n%d" stages ] in
  let sweep () = Sn_engine.Ac.sweep_plan acp ~freqs ~nodes in
  (* pin the symbolic factorization before timing *)
  ignore (Sn_engine.Ac.sweep_plan acp ~freqs:[| 1.0e6 |] ~nodes);
  let reps = 9 in
  let disarmed = seconds ~reps sweep in
  let far =
    Sn_numerics.Cancel.create ~deadline:(Unix.gettimeofday () +. 3600.0) ()
  in
  let armed = seconds ~reps (fun () -> Sn_numerics.Cancel.with_token far sweep) in
  ( armed /. disarmed,
    Printf.sprintf "%d-stage ladder, %d points: disarmed %.3f ms, armed %.3f ms"
      stages (Array.length freqs) (disarmed *. 1e3) (armed *. 1e3) )

(* ------------------------------------------------------------------ *)
(* PRIMA: a warm AC sweep of an RC mesh tied through an extracted
   substrate macromodel vs the same sweep on its rank-k realization *)

let reduction_speedup ~small =
  let module R = Snoise.Reduced_model in
  let module G = Sn_geometry in
  let side = if small then 14 else 20 in
  let name i j = Printf.sprintf "n%d_%d" i j in
  let cell i j =
    let here = name i j in
    let link tag n2 ohms =
      El.Resistor { name = Printf.sprintf "%s%d_%d" tag i j; n1 = here; n2; ohms }
    in
    (if i < side - 1 then [ link "rr" (name (i + 1) j) 100.0 ] else [])
    @ (if j < side - 1 then [ link "rd" (name i (j + 1)) 130.0 ] else [])
    @ [ El.Capacitor
          { name = Printf.sprintf "cg%d_%d" i j; n1 = here; n2 = "0";
            farads = 0.1e-12 } ]
  in
  let mesh =
    List.concat (List.init side (fun i -> List.concat (List.init side (cell i))))
  in
  (* a 4-port substrate macromodel whose ports are the mesh corners *)
  let corner nm x y =
    Sub.Port.v ~name:nm ~kind:Sub.Port.Resistive
      [ G.Rect.make x y (x +. 10.0) (y +. 10.0) ]
  in
  let last = side - 1 in
  let macro =
    Sub.Extractor.extract
      ~config:{ Sub.Grid.nx = 12; ny = 12; z_per_layer = Some [ 1; 1; 1; 1 ] }
      ~tech:Sn_tech.Tech.imec018 ~die:(G.Rect.make 0.0 0.0 60.0 60.0)
      [ corner (name 0 0) 5.0 5.0; corner (name 0 last) 45.0 5.0;
        corner (name last 0) 5.0 45.0; corner (name last last) 45.0 45.0 ]
  in
  let substrate =
    List.mapi
      (fun k (n1, n2, ohms) ->
        El.Resistor { name = Printf.sprintf "rsub%d" k; n1; n2; ohms })
      (Sub.Macromodel.to_resistors macro)
  in
  let out = name last last in
  let nl =
    Sn_circuit.Netlist.create ~title:"bench reduction mesh"
      (El.Vsource
         { name = "vin"; np = "emf"; nn = "0";
           wave = Sn_circuit.Waveform.dc 0.0; ac_mag = 1.0 }
      :: El.Resistor { name = "rsrc"; n1 = "emf"; n2 = name 0 0; ohms = 50.0 }
      :: (mesh @ substrate))
  in
  let config =
    { R.default_config with R.order = R.Auto 1e-6; band = (1.0e6, 1.0e9) }
  in
  let red, reduced = R.reduce_deck_certified ~config ~keep:[ out ] nl in
  if reduced = None then failwith "the reduction did not run";
  let freqs = Sn_numerics.Sweep.logspace 1.0e6 1.0e9 (if small then 40 else 96) in
  let pool = Sn_engine.Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Sn_engine.Pool.shutdown pool) (fun () ->
      let sweep deck =
        let dc = Sn_engine.Dc.solve deck in
        (* plans and the symbolic factorization are built before timing *)
        ignore (Sn_engine.Ac.sweep ~pool ~dc deck ~freqs ~nodes:[ out ]);
        seconds ~reps:(if small then 5 else 9) (fun () ->
            Sn_engine.Ac.sweep ~pool ~dc deck ~freqs ~nodes:[ out ])
      in
      let t_exact = sweep nl and t_red = sweep red in
      ( t_exact /. t_red,
        Printf.sprintf
          "%dx%d mesh + 4-port substrate, %d -> %d nodes: exact %.3f ms, \
           reduced %.3f ms"
          side side
          (List.length (Sn_circuit.Netlist.nodes nl))
          (List.length (Sn_circuit.Netlist.nodes red))
          (t_exact *. 1e3) (t_red *. 1e3) ))

(* ------------------------------------------------------------------ *)
(* Numerical pre-flight vs the cold path it fronts (stamp-plan compile,
   DC bias, complex AC plan; for the merged VCO model also its uncached
   substrate and interconnect extraction), summed over the shipped
   example decks and the merged VCO model *)

let preflight_overhead ~small =
  let reps = if small then 9 else 25 in
  let compile nl =
    let c = Flow.compile_deck ~lint:false nl in
    ignore (Flow.compiled_bias c);
    ignore (Flow.compiled_ac_plan c)
  in
  let vco () =
    Flow.vco_merged (Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.45)
  in
  let example path =
    let load () = Sn_circuit.Spice.load (Filename.concat "examples/decks" path) in
    (load (), reps, fun () -> compile (load ()))
  in
  let decks =
    [ example "clean_rc.sp"; example "probe_divider.sp";
      (vco (), (if small then 1 else 3), fun () -> compile (vco ())) ]
  in
  let pre, cold =
    List.fold_left
      (fun (pre, cold) (nl, cold_reps, cold_path) ->
        ( pre +. seconds ~reps (fun () -> Flow.preflight nl),
          cold +. seconds ~reps:cold_reps cold_path ))
      (0.0, 0.0) decks
  in
  ( pre /. cold,
    Printf.sprintf "%d decks: pre-flight %.3f ms, cold compile %.1f ms"
      (List.length decks) (pre *. 1e3) (cold *. 1e3) )

(* ------------------------------------------------------------------ *)

let gates =
  [ { name = "MG-CG vs direct elimination"; measure = mgcg_vs_direct;
      small_bound = None; full_bound = At_least 10.0 };
    { name = "warm serving vs cold"; measure = warm_vs_cold;
      small_bound = Some (At_least 5.0); full_bound = At_least 10.0 };
    { name = "cancellation overhead"; measure = cancellation_overhead;
      small_bound = None; full_bound = At_most 1.05 };
    { name = "PRIMA reduction speedup"; measure = reduction_speedup;
      small_bound = Some (At_least 5.0); full_bound = At_least 5.0 };
    { name = "pre-flight vs cold compile"; measure = preflight_overhead;
      small_bound = Some (At_most 0.05); full_bound = At_most 0.05 } ]

let holds bound x =
  match bound with
  | At_least b -> x >= b
  | At_most b -> x <= b

let pp_bound ppf = function
  | At_least b -> Format.fprintf ppf ">= %g" b
  | At_most b -> Format.fprintf ppf "<= %g" b

let () =
  let small = Array.exists (String.equal "small") Sys.argv in
  let failed =
    List.filter
      (fun g ->
        match if small then g.small_bound else Some g.full_bound with
        | None ->
          Format.printf "skip %-28s (full mode only)@." g.name;
          false
        | Some bound ->
          let verdict, ratio, detail =
            match g.measure ~small with
            | ratio, detail ->
              ((if holds bound ratio then "ok" else "FAIL"), ratio, detail)
            | exception e -> ("FAIL", Float.nan, Printexc.to_string e)
          in
          Format.printf "%-4s %-28s %8.3f  (%a)  %s@." verdict g.name ratio
            pp_bound bound detail;
          verdict = "FAIL")
      gates
  in
  if failed <> [] then exit 1
