(* Tests for sn_tech and sn_substrate: the technology card, the FDM
   grid, and the macromodel physics (reciprocity, scaling laws,
   shielding). *)

module G = Sn_geometry
module N = Sn_numerics
module T = Sn_tech.Tech
module Port = Sn_substrate.Port
module Grid = Sn_substrate.Grid
module Extractor = Sn_substrate.Extractor
module Macromodel = Sn_substrate.Macromodel

let check_float = Alcotest.(check (float 1e-9))

(* the branch resistance -1 / G_ab between two ports of the model's
   equivalent resistor network *)
let coupling_resistance m a b =
  match
    List.find_opt
      (fun (x, y, _) -> (x = a && y = b) || (x = b && y = a))
      (Macromodel.to_resistors m)
  with
  | Some (_, _, r) -> r
  | None -> Alcotest.failf "ports %s and %s are uncoupled" a b

(* ------------------------------------------------------------------ *)
(* Tech *)

let test_tech_valid () =
  match T.validate T.imec018 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "imec018 invalid: %s" e

let test_tech_lookup () =
  let m1 = T.metal T.imec018 1 in
  Alcotest.(check bool) "m1 sheet R typical" true
    (m1.T.sheet_resistance > 0.01 && m1.T.sheet_resistance < 0.2);
  let m6 = T.metal T.imec018 6 in
  Alcotest.(check bool) "top metal thicker" true
    (m6.T.thickness > m1.T.thickness);
  Alcotest.check_raises "no metal 7"
    (T.Unknown_metal
       { tech = "imec-0.18um-1P6M-high-ohmic"; index = 7;
         available = [ 1; 2; 3; 4; 5; 6 ] })
    (fun () -> ignore (T.metal T.imec018 7))

let test_tech_bulk_resistivity () =
  (* the paper's substrate: 20 ohm cm = 0.2 ohm m bulk *)
  match T.imec018.T.substrate.T.layers with
  | _surface :: bulk :: _ -> check_float "20 ohm cm" 0.2 bulk.T.resistivity
  | _ -> Alcotest.fail "expected layered profile"

let test_wire_caps_positive () =
  for k = 1 to 6 do
    Alcotest.(check bool) "area cap > 0" true
      (T.wire_capacitance_per_area T.imec018 k > 0.0);
    Alcotest.(check bool) "fringe cap > 0" true
      (T.wire_fringe_per_length T.imec018 k > 0.0)
  done;
  (* higher metal is farther from substrate: smaller area capacitance *)
  Alcotest.(check bool) "m6 cap < m1 cap" true
    (T.wire_capacitance_per_area T.imec018 6
     < T.wire_capacitance_per_area T.imec018 1)

let test_tech_validation_catches () =
  let bad = { T.imec018 with T.metals = [] } in
  Alcotest.(check bool) "no metals rejected" true
    (Result.is_error (T.validate bad));
  let bad2 =
    { T.imec018 with
      T.substrate = { T.imec018.T.substrate with T.layers = [] } }
  in
  Alcotest.(check bool) "empty profile rejected" true
    (Result.is_error (T.validate bad2))

(* ------------------------------------------------------------------ *)
(* Grid *)

let die100 = G.Rect.make 0.0 0.0 100.0 100.0

let test_grid_dimensions () =
  let cfg = { Grid.nx = 10; ny = 20; z_per_layer = Some [ 1; 2; 2; 1 ] } in
  let g = Grid.build cfg ~die:die100 T.imec018.T.substrate in
  Alcotest.(check int) "nx" 10 (Grid.nx g);
  Alcotest.(check int) "ny" 20 (Grid.ny g);
  Alcotest.(check int) "nz" 6 (Grid.nz g);
  Alcotest.(check int) "cells" 1200 (Grid.cell_count g);
  check_float "dx" 1.0e-5 (Grid.dx g 0);
  check_float "dy" 5.0e-6 (Grid.dy g 0)

let test_grid_depth_preserved () =
  let g = Grid.build Grid.default_config ~die:die100 T.imec018.T.substrate in
  let total = ref 0.0 in
  for iz = 0 to Grid.nz g - 1 do
    total := !total +. Grid.dz g iz
  done;
  Alcotest.(check (float 1e-12)) "total depth"
    (List.fold_left
       (fun acc (l : T.substrate_layer) -> acc +. l.T.depth)
       0.0 T.imec018.T.substrate.T.layers) !total

let test_grid_bad_config () =
  Alcotest.check_raises "nx = 0"
    (Invalid_argument "Grid.build: nx and ny must be >= 1") (fun () ->
      ignore
        (Grid.build { Grid.nx = 0; ny = 4; z_per_layer = None } ~die:die100
           T.imec018.T.substrate));
  Alcotest.check_raises "z mismatch"
    (Invalid_argument "Grid.build: z_per_layer length mismatch") (fun () ->
      ignore
        (Grid.build { Grid.nx = 4; ny = 4; z_per_layer = Some [ 1 ] }
           ~die:die100 T.imec018.T.substrate))

let test_grid_conductances_positive () =
  let cfg = { Grid.nx = 4; ny = 4; z_per_layer = Some [ 1; 1; 1; 1 ] } in
  let g = Grid.build cfg ~die:die100 T.imec018.T.substrate in
  let count = ref 0 in
  Grid.iter_conductances g (fun a b gv ->
      Alcotest.(check bool) "distinct cells" true (a <> b);
      Alcotest.(check bool) "positive conductance" true (gv > 0.0);
      incr count);
  (* 3 directions on a 4x4x4 grid: 3 * (3*4*4) pairs *)
  Alcotest.(check int) "pair count" 144 !count

let test_surface_cell_rect () =
  let cfg = { Grid.nx = 10; ny = 10; z_per_layer = None } in
  let g = Grid.build cfg ~die:die100 T.imec018.T.substrate in
  let r = Grid.surface_cell_rect g 0 0 in
  check_float "cell width" 10.0 (G.Rect.width r);
  let r99 = Grid.surface_cell_rect g 9 9 in
  check_float "last cell touches edge" 100.0 r99.G.Rect.x1

(* ------------------------------------------------------------------ *)
(* Ports *)

let test_port_of_layout () =
  let open Sn_layout in
  let cell =
    Cell.make ~name:"c"
      [
        Shape.rect ~layer:Layer.Substrate_contact ~net:"gnd"
          (G.Rect.make 0.0 0.0 1.0 1.0);
        Shape.rect ~layer:Layer.Substrate_contact ~net:"gnd"
          (G.Rect.make 5.0 0.0 6.0 1.0);
        Shape.rect ~layer:Layer.Substrate_contact ~net:"sub"
          (G.Rect.make 9.0 9.0 10.0 10.0);
        Shape.rect ~layer:Layer.Nwell ~net:"vdd" (G.Rect.make 2.0 2.0 4.0 4.0);
        Shape.rect ~layer:(Layer.Backgate_probe "m1") ~net:"-"
          (G.Rect.make 7.0 7.0 8.0 8.0);
        Shape.rect ~layer:(Layer.Metal 1) ~net:"gnd" (G.Rect.make 0.0 0.0 9.0 1.0);
      ]
  in
  let ports = Port.of_layout (Layout.create ~top:"c" [ cell ]) in
  let names = List.map (fun p -> p.Port.name) ports in
  Alcotest.(check (list string)) "port names"
    [ "backgate:m1"; "gnd"; "nwell:vdd"; "sub" ] names;
  let gnd = List.find (fun p -> p.Port.name = "gnd") ports in
  Alcotest.(check int) "gnd merges two rects" 2 (List.length gnd.Port.region);
  check_float "gnd area" 2.0
    (List.fold_left (fun a r -> a +. G.Rect.area r) 0.0 gnd.Port.region);
  let well = List.find (fun p -> p.Port.name = "nwell:vdd") ports in
  Alcotest.(check bool) "well kind" true (well.Port.kind = Port.Well)

let test_port_empty_region () =
  Alcotest.check_raises "empty region" (Invalid_argument "Port.v: empty region")
    (fun () -> ignore (Port.v ~name:"x" ~kind:Port.Resistive []))

(* ------------------------------------------------------------------ *)
(* Extraction physics *)

let fast_config = { Grid.nx = 24; ny = 24; z_per_layer = Some [ 1; 2; 2; 2 ] }

let two_contact_model ?(die = die100) ?(cfg = fast_config) ?(sep = 60.0) () =
  let a = Port.v ~name:"a" ~kind:Port.Resistive [ G.Rect.make 10.0 45.0 20.0 55.0 ] in
  let b =
    Port.v ~name:"b" ~kind:Port.Resistive
      [ G.Rect.make (10.0 +. sep) 45.0 (20.0 +. sep) 55.0 ]
  in
  Extractor.extract ~config:cfg ~tech:T.imec018 ~die [ a; b ]

let test_macromodel_symmetric () =
  let m = two_contact_model () in
  Alcotest.(check bool) "S symmetric" true
    (N.Mat.is_symmetric ~tol:1e-6 m.Macromodel.conductance)

let test_macromodel_row_sums_zero () =
  (* no global ground: the reduced network is a pure Laplacian *)
  let m = two_contact_model () in
  let s = m.Macromodel.conductance in
  for i = 0 to N.Mat.rows s - 1 do
    let sum = ref 0.0 in
    for j = 0 to N.Mat.cols s - 1 do
      sum := !sum +. N.Mat.get s i j
    done;
    Alcotest.(check bool) "row sum ~ 0" true
      (Float.abs !sum < 1e-6 *. N.Mat.get s i i)
  done

let test_two_contact_resistance_plausible () =
  let m = two_contact_model () in
  let r = coupling_resistance m "a" "b" in
  (* spreading resistance of two 10x10 um contacts 60 um apart in a
     20 ohm cm bulk: order 1-50 kohm *)
  Alcotest.(check bool)
    (Printf.sprintf "R = %g in plausible band" r)
    true
    (r > 200.0 && r < 100_000.0)

let test_resistance_increases_with_separation () =
  let r_near =
    coupling_resistance (two_contact_model ~sep:30.0 ()) "a" "b"
  in
  let r_far =
    coupling_resistance (two_contact_model ~sep:70.0 ()) "a" "b"
  in
  Alcotest.(check bool)
    (Printf.sprintf "R(30um)=%g < R(70um)=%g" r_near r_far)
    true (r_near < r_far)

let test_resistance_decreases_with_contact_area () =
  let model size =
    let a =
      Port.v ~name:"a" ~kind:Port.Resistive
        [ G.Rect.make 10.0 45.0 (10.0 +. size) (45.0 +. size) ]
    in
    let b =
      Port.v ~name:"b" ~kind:Port.Resistive
        [ G.Rect.make 70.0 45.0 (70.0 +. size) (45.0 +. size) ]
    in
    Extractor.extract ~config:fast_config ~tech:T.imec018 ~die:die100 [ a; b ]
  in
  let r_small = coupling_resistance (model 5.0) "a" "b" in
  let r_big = coupling_resistance (model 15.0) "a" "b" in
  Alcotest.(check bool)
    (Printf.sprintf "R(5um)=%g > R(15um)=%g" r_small r_big)
    true (r_small > r_big)

let test_divider_reciprocity () =
  let m = two_contact_model () in
  (* with only two ports and nothing grounded the sense port floats at
     the injected potential *)
  let d = Macromodel.divider m ~inject:"a" ~sense:"b" ~grounded:[] in
  Alcotest.(check (float 1e-5)) "floating two-port divider is 1" 1.0 d

let test_guard_ring_shields () =
  (* a grounded ring between injector and sensor must reduce coupling *)
  let inject = Port.v ~name:"inj" ~kind:Port.Resistive
      [ G.Rect.make 5.0 45.0 15.0 55.0 ] in
  let sense = Port.v ~name:"sns" ~kind:Port.Probe
      [ G.Rect.make 80.0 45.0 90.0 55.0 ] in
  let ring_rects =
    [ G.Rect.make 45.0 20.0 50.0 80.0 ]
  in
  let ring = Port.v ~name:"ring" ~kind:Port.Resistive ring_rects in
  let bare =
    Extractor.extract ~config:fast_config ~tech:T.imec018 ~die:die100
      [ inject; sense ]
  in
  let shielded =
    Extractor.extract ~config:fast_config ~tech:T.imec018 ~die:die100
      [ inject; sense; ring ]
  in
  let d_bare = Macromodel.divider bare ~inject:"inj" ~sense:"sns" ~grounded:[] in
  let d_shield =
    Macromodel.divider shielded ~inject:"inj" ~sense:"sns" ~grounded:[ "ring" ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "shielded %g << bare %g" d_shield d_bare)
    true
    (d_shield < 0.3 *. d_bare)

let test_well_capacitance_reported () =
  let well =
    Port.v ~name:"nwell:vdd" ~kind:Port.Well [ G.Rect.make 40.0 40.0 60.0 60.0 ]
  in
  let tap = Port.v ~name:"gnd" ~kind:Port.Resistive
      [ G.Rect.make 5.0 5.0 10.0 10.0 ] in
  let m =
    Extractor.extract ~config:fast_config ~tech:T.imec018 ~die:die100
      [ well; tap ]
  in
  match m.Macromodel.well_capacitance with
  | [ (name, c) ] ->
    Alcotest.(check string) "well name" "nwell:vdd" name;
    (* 400 um^2 * 0.1 fF/um^2 = 40 fF + sidewall *)
    Alcotest.(check bool) (Printf.sprintf "C = %g plausible" c) true
      (c > 20.0e-15 && c < 100.0e-15)
  | l -> Alcotest.failf "expected 1 well cap, got %d" (List.length l)

let test_port_outside_die_rejected () =
  let p = Port.v ~name:"x" ~kind:Port.Resistive
      [ G.Rect.make 200.0 200.0 210.0 210.0 ] in
  match
    Extractor.extract ~config:fast_config ~tech:T.imec018 ~die:die100 [ p ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_solve_constraint_errors () =
  let m = two_contact_model () in
  Alcotest.(check bool) "double constraint rejected" true
    (match
       Macromodel.solve m ~driven:[ ("a", 1.0) ] ~grounded:[ "a" ]
     with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "no constraint rejected" true
    (match Macromodel.solve m ~driven:[] ~grounded:[] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_to_resistors () =
  let m = two_contact_model () in
  match Macromodel.to_resistors m with
  | [ (a, b, r) ] ->
    Alcotest.(check string) "a" "a" a;
    Alcotest.(check string) "b" "b" b;
    Alcotest.(check bool) "positive R" true (r > 0.0)
  | l -> Alcotest.failf "expected 1 resistor, got %d" (List.length l)

let backplane_ports =
  [ Port.v ~name:"inj" ~kind:Port.Resistive [ G.Rect.make 5.0 45.0 15.0 55.0 ];
    Port.v ~name:"sns" ~kind:Port.Probe [ G.Rect.make 80.0 45.0 90.0 55.0 ] ]

let test_grounded_backplane_shields () =
  (* metallizing the backside gives the noise a vertical escape path
     and reduces lateral coupling *)
  let bare =
    Extractor.extract ~config:fast_config ~tech:T.imec018 ~die:die100
      backplane_ports
  in
  let plated =
    Extractor.extract ~config:fast_config ~grounded_backplane:true
      ~tech:T.imec018 ~die:die100 backplane_ports
  in
  Alcotest.(check (list string)) "backplane port appended"
    [ "inj"; "sns"; "backplane" ]
    (Macromodel.port_names plated);
  let d_bare = Macromodel.divider bare ~inject:"inj" ~sense:"sns" ~grounded:[] in
  let d_plated =
    Macromodel.divider plated ~inject:"inj" ~sense:"sns"
      ~grounded:[ "backplane" ]
  in
  (* the plated divider measures 0.887 x the bare one: the bottom
     cells lie under 500 um of 20 ohm cm bulk *)
  Alcotest.(check bool)
    (Printf.sprintf "plated %g < 0.92 x bare %g" d_plated d_bare)
    true
    (d_plated < 0.92 *. d_bare);
  (* the backplane touches the bottom cells only: under 500 um of
     20 ohm cm bulk it barely loads a surface contact (a backplane
     that also touched the surface tied each contact to it at 5 S) *)
  let g m = N.Mat.get m.Macromodel.conductance 0 0 in
  Alcotest.(check bool)
    (Printf.sprintf "inj self-conductance %g ~ bare %g" (g plated) (g bare))
    true
    (g plated < 1.1 *. g bare)

module Elim = Sn_substrate.Elimination

let test_elimination_simple_chain () =
  (* three resistors in series, middle nodes eliminated: R total = sum *)
  let net =
    Elim.of_conductances ~n:4 ~ports:[| 0; 3 |]
      [ (0, 1, 1.0 /. 10.0); (1, 2, 1.0 /. 20.0); (2, 3, 1.0 /. 30.0) ]
  in
  Elim.eliminate_internal net;
  let s = Elim.port_conductance net in
  Alcotest.(check (float 1e-12)) "series 60 ohm" (1.0 /. 60.0)
    (-.N.Mat.get s 0 1)

let test_elimination_star () =
  (* a star of three 30-ohm arms collapses to a 30+30 = ... mesh:
     pairwise R between any two ports = 60 || (through third: 120)
     -> star-mesh: g_ij = g_i g_j / (g_1+g_2+g_3) *)
  let g = 1.0 /. 30.0 in
  let net =
    Elim.of_conductances ~n:4 ~ports:[| 0; 1; 2 |]
      [ (0, 3, g); (1, 3, g); (2, 3, g) ]
  in
  Elim.eliminate_internal net;
  let s = Elim.port_conductance net in
  Alcotest.(check (float 1e-12)) "mesh conductance" (g /. 3.0)
    (-.N.Mat.get s 0 1)

let test_elimination_matches_schur () =
  (* the direct elimination and the CG Schur complement must produce
     the same macromodel on the same small grid *)
  let die = G.Rect.make 0.0 0.0 60.0 60.0 in
  let cfg = { Grid.nx = 10; ny = 10; z_per_layer = Some [ 1; 1; 1; 1 ] } in
  let ports =
    [ Port.v ~name:"a" ~kind:Port.Resistive [ G.Rect.make 6.0 24.0 18.0 36.0 ];
      Port.v ~name:"b" ~kind:Port.Resistive [ G.Rect.make 42.0 24.0 54.0 36.0 ];
      Port.v ~name:"c" ~kind:Port.Probe [ G.Rect.make 24.0 6.0 36.0 18.0 ] ]
  in
  let schur = Extractor.extract ~config:cfg ~tech:T.imec018 ~die ports in
  let direct = Elim.reduce_grid ~config:cfg ~tech:T.imec018 ~die ports in
  let max_rel = ref 0.0 in
  for i = 0 to 2 do
    for j = 0 to 2 do
      let a = N.Mat.get schur.Macromodel.conductance i j in
      let b = N.Mat.get direct.Macromodel.conductance i j in
      if Float.abs a > 1e-15 then
        max_rel := Float.max !max_rel (Float.abs ((a -. b) /. a))
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "reductions agree (max rel err %.2e)" !max_rel)
    true (!max_rel < 1e-4)

let test_elimination_rejects_bad_input () =
  Alcotest.(check bool) "bad node" true
    (match Elim.of_conductances ~n:2 ~ports:[| 0 |] [ (0, 5, 1.0) ] with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "bad conductance" true
    (match Elim.of_conductances ~n:2 ~ports:[| 0 |] [ (0, 1, -1.0) ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_epi_distance_insensitive () =
  (* on an epi wafer the p+ bulk is a single node: coupling barely
     changes with distance, unlike the high-ohmic wafer *)
  let die = G.Rect.make 0.0 0.0 300.0 300.0 in
  let cfg = { Grid.nx = 24; ny = 24; z_per_layer = Some [ 1; 2; 2; 1 ] } in
  let coupling ~tech ~distance =
    let ports =
      [ Port.v ~name:"inj" ~kind:Port.Resistive
          [ G.Rect.make 20.0 140.0 40.0 160.0 ];
        Port.v ~name:"vic" ~kind:Port.Probe
          [ G.Rect.make (40.0 +. distance) 140.0 (60.0 +. distance) 160.0 ];
        Port.v ~name:"tap" ~kind:Port.Resistive
          [ G.Rect.make 140.0 20.0 160.0 40.0 ] ]
    in
    let m = Extractor.extract ~config:cfg ~tech ~die ports in
    20.0 *. log10 (Macromodel.divider m ~inject:"inj" ~sense:"vic"
                     ~grounded:[ "tap" ])
  in
  let epi_near = coupling ~tech:T.epi018 ~distance:20.0 in
  let epi_far = coupling ~tech:T.epi018 ~distance:200.0 in
  let ho_near = coupling ~tech:T.imec018 ~distance:20.0 in
  let ho_far = coupling ~tech:T.imec018 ~distance:200.0 in
  Alcotest.(check bool)
    (Printf.sprintf "epi flat: %.1f vs %.1f dB" epi_near epi_far)
    true
    (Float.abs (epi_near -. epi_far) < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "high-ohmic improves: %.1f -> %.1f dB" ho_near ho_far)
    true
    (ho_near -. ho_far > 2.0)

let test_epi_card_valid () =
  match T.validate T.epi018 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "epi018 invalid: %s" e

let test_grid_convergence () =
  (* refining the grid must not change the port resistance wildly *)
  let coarse = { Grid.nx = 16; ny = 16; z_per_layer = Some [ 1; 1; 1; 1 ] } in
  let fine = { Grid.nx = 32; ny = 32; z_per_layer = Some [ 1; 2; 2; 2 ] } in
  let r_coarse =
    coupling_resistance (two_contact_model ~cfg:coarse ()) "a" "b"
  in
  let r_fine =
    coupling_resistance (two_contact_model ~cfg:fine ()) "a" "b"
  in
  let rel = Float.abs (r_fine -. r_coarse) /. r_fine in
  Alcotest.(check bool)
    (Printf.sprintf "coarse %g vs fine %g: %.0f%%" r_coarse r_fine (100.0 *. rel))
    true (rel < 0.5)

(* ------------------------------------------------------------------ *)
(* extraction at scale: tiled hierarchical reduction, the macromodel
   cache, and pool determinism *)

module Cache = Sn_substrate.Cache

(* the judgement [Cache.verify_dir] gives one entry *)
let verify_entry cache ~key =
  List.assoc key (Cache.verify_dir cache).Cache.vf_entries
module Pool = Sn_engine.Pool

let stats_exn () =
  match Extractor.last_stats () with
  | Some s -> s
  | None -> Alcotest.fail "extractor recorded no stats"

let mat_entries m =
  let np = N.Mat.rows m in
  Array.init (np * np) (fun k -> N.Mat.get m (k / np) (k mod np))

(* byte-identical: same IEEE bits, not merely close *)
let check_identical what a b =
  let ea = mat_entries a and eb = mat_entries b in
  Alcotest.(check bool) what true
    (Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       ea eb)

let scale_die = G.Rect.make 0.0 0.0 60.0 60.0

let scale_ports seed =
  (* 3 or 4 square ports placed by a tiny LCG, always inside the die *)
  let state = ref (seed land 0x3FFFFFFF) in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let n_ports = 3 + rand 2 in
  List.init n_ports (fun k ->
      let x0 = 2.0 +. float_of_int (rand 44) in
      let y0 = 2.0 +. float_of_int (rand 44) in
      Port.v ~name:(Printf.sprintf "p%d" k)
        ~kind:(if k = 2 then Port.Probe else Port.Resistive)
        [ G.Rect.make x0 y0 (x0 +. 12.0) (y0 +. 12.0) ])

let max_rel_err a b =
  let scale =
    Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1e-300
      (mat_entries a)
  in
  let ea = mat_entries a and eb = mat_entries b in
  let worst = ref 0.0 in
  Array.iteri
    (fun k x -> worst := Float.max !worst (Float.abs (x -. eb.(k)) /. scale))
    ea;
  !worst

let qcheck_tiled_matches_direct =
  QCheck.Test.make ~count:12 ~name:"tiled MG-CG = direct elimination"
    QCheck.(
      quad (int_range 4 10) (int_range 4 10)
        (pair (int_range 1 3) (int_range 1 3))
        (int_range 0 10000))
    (fun (nx, ny, tiles, seed) ->
      let cfg = { Grid.nx; ny; z_per_layer = Some [ 1; 1; 1; 1 ] } in
      let ports = scale_ports seed in
      let tiled =
        Extractor.extract ~config:cfg ~tiles ~tech:T.imec018 ~die:scale_die
          ports
      in
      let direct =
        Elim.reduce_grid ~config:cfg ~tech:T.imec018 ~die:scale_die ports
      in
      max_rel_err direct.Macromodel.conductance
        tiled.Macromodel.conductance
      < 1e-8)

let scale_cfg = { Grid.nx = 16; ny = 16; z_per_layer = Some [ 1; 1; 1; 1 ] }

let scale_ports4 =
  [ Port.v ~name:"a" ~kind:Port.Resistive [ G.Rect.make 4.0 4.0 16.0 16.0 ];
    Port.v ~name:"b" ~kind:Port.Resistive [ G.Rect.make 44.0 4.0 56.0 16.0 ];
    Port.v ~name:"c" ~kind:Port.Resistive [ G.Rect.make 4.0 44.0 16.0 56.0 ];
    Port.v ~name:"d" ~kind:Port.Resistive [ G.Rect.make 44.0 44.0 56.0 56.0 ] ]

let fresh_cache_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "snoise_cache_test_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

let extract_cached cache =
  Extractor.extract ~config:scale_cfg ~tiles:(2, 2) ~cache ~tech:T.imec018
    ~die:scale_die scale_ports4

let test_cache_round_trip () =
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  let cold = extract_cached cache in
  let s_cold = stats_exn () in
  Alcotest.(check int) "cold: no hits" 0 s_cold.Extractor.cache_hits;
  Alcotest.(check int) "cold: all tiles missed" 4
    s_cold.Extractor.cache_misses;
  Alcotest.(check bool) "cold: CG ran" true
    (s_cold.Extractor.cg_iterations_total > 0);
  let warm = extract_cached cache in
  let s_warm = stats_exn () in
  Alcotest.(check int) "warm: all tiles hit" 4 s_warm.Extractor.cache_hits;
  Alcotest.(check int) "warm: no misses" 0 s_warm.Extractor.cache_misses;
  Alcotest.(check int) "warm: reduction skipped (no CG)" 0
    s_warm.Extractor.cg_iterations_total;
  check_identical "warm result byte-identical"
    cold.Macromodel.conductance warm.Macromodel.conductance;
  (* corrupt one entry: that tile (and only that tile) recomputes,
     and the result is unchanged *)
  let entries =
    Sys.readdir (Cache.dir cache)
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tile")
    |> List.sort String.compare
  in
  Alcotest.(check int) "four entries on disk" 4 (List.length entries);
  let victim = Filename.concat (Cache.dir cache) (List.hd entries) in
  let oc = open_out_bin victim in
  output_string oc "garbage";
  close_out oc;
  let rebuilt = extract_cached cache in
  let s_rebuilt = stats_exn () in
  Alcotest.(check int) "corrupted: three hits" 3
    s_rebuilt.Extractor.cache_hits;
  Alcotest.(check int) "corrupted: one miss" 1
    s_rebuilt.Extractor.cache_misses;
  check_identical "recomputed result byte-identical"
    cold.Macromodel.conductance rebuilt.Macromodel.conductance

let test_cache_reduction_namespace () =
  (* a reduction-tagged run and an exact run must never share cache
     entries: same geometry, disjoint keys, identical conductances *)
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  let exact = extract_cached cache in
  let digest =
    Snoise.Reduced_model.(config_digest default_config)
  in
  let extract_reduced () =
    Extractor.extract ~config:scale_cfg ~tiles:(2, 2) ~cache
      ~reduction:digest ~tech:T.imec018 ~die:scale_die scale_ports4
  in
  let reduced = extract_reduced () in
  let s = stats_exn () in
  Alcotest.(check int) "reduced run misses the exact entries" 4
    s.Extractor.cache_misses;
  Alcotest.(check int) "no cross-namespace hits" 0 s.Extractor.cache_hits;
  let entries =
    Sys.readdir (Cache.dir cache) |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tile")
  in
  Alcotest.(check int) "disjoint entries on disk" 8 (List.length entries);
  check_identical "tile content independent of the tag"
    exact.Macromodel.conductance reduced.Macromodel.conductance;
  (* warm within the same namespace still hits *)
  ignore (extract_reduced ());
  let s_warm = stats_exn () in
  Alcotest.(check int) "reduced namespace warm" 4 s_warm.Extractor.cache_hits

let test_cache_certificates () =
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  let cold = extract_cached cache in
  (* every freshly stored entry carries a verifying certificate *)
  let vf = Cache.verify_dir cache in
  Alcotest.(check int) "four entries judged" 4
    (List.length vf.Cache.vf_entries);
  Alcotest.(check int) "all certified" 4 vf.Cache.vf_certified;
  Alcotest.(check int) "none bad" 0 vf.Cache.vf_bad;
  (* re-verification of a warm cache is hashing only: the warm
     extraction that follows does zero CG work *)
  let warm = extract_cached cache in
  let s_warm = stats_exn () in
  Alcotest.(check int) "warm certified cache: 0 CG iterations" 0
    s_warm.Extractor.cg_iterations_total;
  Alcotest.(check int) "warm certified cache: all hits" 4
    s_warm.Extractor.cache_hits;
  check_identical "warm result byte-identical"
    cold.Macromodel.conductance warm.Macromodel.conductance;
  (* tamper with the last byte (inside the stored signature): the
     entry must be judged Bad and the lookup must reject it *)
  let victim_file =
    Sys.readdir (Cache.dir cache)
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tile")
    |> List.sort String.compare |> List.hd
  in
  let victim_key = Filename.chop_suffix victim_file ".tile" in
  let victim = Filename.concat (Cache.dir cache) victim_file in
  let bytes =
    let ic = open_in_bin victim in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    Bytes.of_string b
  in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 0xFF));
  let oc = open_out_bin victim in
  output_bytes oc bytes;
  close_out oc;
  (match verify_entry cache ~key:victim_key with
  | Cache.Bad _ -> ()
  | s ->
    Alcotest.failf "tampered entry judged %s, expected bad"
      (Cache.status_name s));
  let vf2 = Cache.verify_dir cache in
  Alcotest.(check int) "one bad after tampering" 1 vf2.Cache.vf_bad;
  Alcotest.(check int) "three still certified" 3 vf2.Cache.vf_certified;
  (* tampering downgrades to recomputation, never to a wrong answer *)
  Cache.reset_counters ();
  let rebuilt = extract_cached cache in
  let c = Cache.counters () in
  Alcotest.(check bool) "rejection counted" true (c.Cache.rejected >= 1);
  check_identical "rebuilt result byte-identical"
    cold.Macromodel.conductance rebuilt.Macromodel.conductance;
  Alcotest.(check int) "healthy again after recompute" 0
    (Cache.verify_dir cache).Cache.vf_bad;
  (* a previous-format entry is judged Stale and is a clean miss *)
  let stale_model =
    { Cache.labels = [| "n" |]; matrix = [| 1.0 |]; iterations = 0;
      form = "exact" }
  in
  let stale = Filename.concat (Cache.dir cache) "00stale.tile" in
  let oc = open_out_bin stale in
  output_string oc "snoise-tile-cache\n";
  Marshal.to_channel oc
    (Cache.format_version - 1, stale_model, (None : unit option))
    [];
  close_out oc;
  Alcotest.(check bool) "stale entry judged stale" true
    (verify_entry cache ~key:"00stale" = Cache.Stale);
  Alcotest.(check int) "verify_dir counts it" 1
    (Cache.verify_dir cache).Cache.vf_stale;
  Alcotest.(check bool) "stale lookup is a miss" true
    (Cache.lookup cache ~key:"00stale" = None)

(* A tile's columns are solved as lanes of blocks whose shape follows
   the pool width: 1, 2, 3 (uneven blocks) and 4 workers give the same
   bytes and the same CG iterations, tiled and untiled. *)
let test_jobs_identity () =
  let run tiles jobs =
    let pool = Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let m =
      Extractor.extract ~config:scale_cfg ~tiles ~pool ~tech:T.imec018
        ~die:scale_die scale_ports4
    in
    (m, (stats_exn ()).Extractor.cg_iterations_total)
  in
  List.iter
    (fun (what, tiles) ->
      let seq, seq_iters = run tiles 1 in
      Alcotest.(check bool) (what ^ ": CG ran") true (seq_iters > 0);
      List.iter
        (fun jobs ->
          let par, par_iters = run tiles jobs in
          check_identical
            (Printf.sprintf "%s: 1 worker = %d workers, byte-identical" what
               jobs)
            seq.Macromodel.conductance par.Macromodel.conductance;
          Alcotest.(check int)
            (Printf.sprintf "%s: CG iterations on %d workers" what jobs)
            seq_iters par_iters)
        [ 2; 3; 4 ])
    [ ("2x2 tiles", (2, 2)); ("untiled", (1, 1)) ]

let test_solvers_agree () =
  (* untiled and tiled MG-CG agree with the direct elimination oracle *)
  let base =
    Elim.reduce_grid ~config:scale_cfg ~tech:T.imec018 ~die:scale_die
      scale_ports4
  in
  List.iter
    (fun (what, tiles) ->
      let m =
        Extractor.extract ~config:scale_cfg ~tiles ~tech:T.imec018
          ~die:scale_die scale_ports4
      in
      let err = max_rel_err base.Macromodel.conductance m.Macromodel.conductance in
      Alcotest.(check bool)
        (Printf.sprintf "%s (rel err %.2e)" what err)
        true (err < 1e-8))
    [ ("mg-cg untiled", (1, 1));
      ("mg-cg tiled", (2, 2));
      ("mg-cg tiled 3x2", (3, 2)) ]

(* ------------------------------------------------------------------ *)
(* lookup and store counters: one judgement for lookup and verify *)

let write_entry cache ~key (model : Cache.tile_model) =
  (* a current-format payload written by hand, without a certificate *)
  let oc = open_out_bin (Filename.concat (Cache.dir cache) (key ^ ".tile")) in
  output_string oc "snoise-tile-cache\n";
  Marshal.to_channel oc
    (Cache.format_version, model, (None : unit option))
    [];
  close_out oc

let test_lookup_refuses_bad () =
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  write_entry cache ~key:"00bad"
    { Cache.labels = [| "n" |]; matrix = [| -1.0 |]; iterations = 0;
      form = "exact" };
  (match verify_entry cache ~key:"00bad" with
   | Cache.Bad _ -> ()
   | s -> Alcotest.failf "judged %s, expected bad" (Cache.status_name s));
  let before = Cache.counters () in
  Alcotest.(check bool) "non-passive uncertified entry is a miss" true
    (Cache.lookup cache ~key:"00bad" = None);
  let after = Cache.counters () in
  Alcotest.(check int) "counted as rejected" 1
    (after.Cache.rejected - before.Cache.rejected);
  Alcotest.(check int) "not counted as a hit" 0
    (after.Cache.hits - before.Cache.hits);
  (* an uncertified entry that passes a fresh PSD check is still served *)
  write_entry cache ~key:"00ok"
    { Cache.labels = [| "n" |]; matrix = [| 2.0 |]; iterations = 0;
      form = "exact" };
  Alcotest.(check bool) "recertified entry is a hit" true
    (Cache.lookup cache ~key:"00ok" <> None)

let test_store_counts_writes () =
  let file = Filename.temp_file "snoise_not_a_dir" "" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let cache = Cache.create ~dir:(Filename.concat file "tiles") in
  let before = Cache.counters () in
  Cache.store cache ~key:"k"
    { Cache.labels = [| "n" |]; matrix = [| 1.0 |]; iterations = 0;
      form = "exact" };
  Alcotest.(check int) "failed write is not a store" 0
    ((Cache.counters ()).Cache.stores - before.Cache.stores);
  let ok = Cache.create ~dir:(fresh_cache_dir ()) in
  Cache.store ok ~key:"k"
    { Cache.labels = [| "n" |]; matrix = [| 1.0 |]; iterations = 0;
      form = "exact" };
  Alcotest.(check int) "completed write is one store" 1
    ((Cache.counters ()).Cache.stores - before.Cache.stores)

(* ------------------------------------------------------------------ *)
(* the input key and the handle's index *)

type key_inputs = {
  k_config : Grid.config;
  k_backplane : bool;
  k_tiles : int * int;
  k_reduction : string option;
  k_tech : T.t;
  k_die : G.Rect.t;
  k_ports : Port.t list;
}

let key_of k =
  Extractor.input_key ~config:k.k_config ~grounded_backplane:k.k_backplane
    ~tiles:k.k_tiles ?reduction:k.k_reduction ~tech:k.k_tech ~die:k.k_die
    k.k_ports

(* [r] with coordinate [c] (x0, y0, x1, y1) moved up by one ulp *)
let bump_rect (r : G.Rect.t) c =
  let x0 = r.G.Rect.x0 and y0 = r.G.Rect.y0 in
  let x1 = r.G.Rect.x1 and y1 = r.G.Rect.y1 in
  match c mod 4 with
  | 0 -> G.Rect.make (Float.succ x0) y0 x1 y1
  | 1 -> G.Rect.make x0 (Float.succ y0) x1 y1
  | 2 -> G.Rect.make x0 y0 (Float.succ x1) y1
  | _ -> G.Rect.make x0 y0 x1 (Float.succ y1)

let n_key_fields = 18

(* [perturb field seed k] changes exactly one input field of [k] *)
let perturb field seed k =
  let profile = k.k_tech.T.substrate in
  let with_profile p = { k with k_tech = { k.k_tech with T.substrate = p } } in
  let nth_layer f =
    let i = seed mod List.length profile.T.layers in
    with_profile
      { profile with
        T.layers = List.mapi (fun j l -> if j = i then f l else l) profile.T.layers }
  in
  let nth_port f =
    let i = seed mod List.length k.k_ports in
    { k with k_ports = List.mapi (fun j p -> if j = i then f p else p) k.k_ports }
  in
  let tx, ty = k.k_tiles in
  let cfg = k.k_config in
  match field with
  | 0 -> { k with k_reduction = Some "prima-digest" }
  | 1 -> { k with k_tiles = (tx + 1, ty) }
  | 2 -> { k with k_tiles = (tx, ty + 1) }
  | 3 -> { k with k_config = { cfg with Grid.nx = cfg.Grid.nx + 1 } }
  | 4 -> { k with k_config = { cfg with Grid.ny = cfg.Grid.ny + 1 } }
  | 5 ->
    let zs = Option.get cfg.Grid.z_per_layer in
    let i = seed mod List.length zs in
    { k with
      k_config =
        { cfg with
          Grid.z_per_layer = Some (List.mapi (fun j z -> if j = i then z + 1 else z) zs) } }
  | 6 -> { k with k_config = { cfg with Grid.z_per_layer = None } }
  | 7 -> { k with k_backplane = true }
  | 8 -> { k with k_die = bump_rect k.k_die seed }
  | 9 -> nth_layer (fun l -> { l with T.depth = Float.succ l.T.depth })
  | 10 -> nth_layer (fun l -> { l with T.resistivity = Float.succ l.T.resistivity })
  | 11 ->
    with_profile
      { profile with T.contact_resistance = Float.succ profile.T.contact_resistance }
  | 12 ->
    with_profile { profile with T.nwell_cap_area = Float.succ profile.T.nwell_cap_area }
  | 13 ->
    with_profile
      { profile with T.nwell_cap_perimeter = Float.succ profile.T.nwell_cap_perimeter }
  | 14 -> (
    (* swap two neighbouring ports *)
    let i = seed mod (List.length k.k_ports - 1) in
    let a = List.nth k.k_ports i and b = List.nth k.k_ports (i + 1) in
    { k with
      k_ports =
        List.mapi (fun j p -> if j = i then b else if j = i + 1 then a else p) k.k_ports })
  | 15 -> nth_port (fun p -> { p with Port.name = p.Port.name ^ "'" })
  | 16 ->
    nth_port (fun p ->
        { p with Port.kind = (if p.Port.kind = Port.Well then Port.Probe else Port.Well) })
  | _ ->
    nth_port (fun p ->
        { p with
          Port.region =
            List.mapi
              (fun j r -> if j = 0 then bump_rect r (seed / 7) else r)
              p.Port.region })

let qcheck_input_key_fields =
  QCheck.Test.make ~count:200 ~name:"any one input field moves the input key"
    QCheck.(pair (int_range 0 (n_key_fields - 1)) (int_range 0 10000))
    (fun (field, seed) ->
      let base =
        { k_config = scale_cfg; k_backplane = false; k_tiles = (2, 2);
          k_reduction = None;
          k_tech = T.imec018; k_die = scale_die; k_ports = scale_ports seed }
      in
      let k = key_of base in
      String.equal k (key_of { base with k_ports = scale_ports seed })
      && not (String.equal k (key_of (perturb field seed base))))

let well_ports =
  scale_ports4
  @ [ Port.v ~name:"w" ~kind:Port.Well [ G.Rect.make 24.0 24.0 36.0 36.0 ] ]

let check_same_model what (a : Macromodel.t) (b : Macromodel.t) =
  check_identical (what ^ ": conductance") a.Macromodel.conductance
    b.Macromodel.conductance;
  let bits l = List.map (fun (n, c) -> (n, Int64.bits_of_float c)) l in
  Alcotest.(check bool) (what ^ ": well caps") true
    (bits a.Macromodel.well_capacitance = bits b.Macromodel.well_capacitance)

let test_input_key_hit_identical () =
  let digest = Snoise.Reduced_model.(config_digest default_config) in
  List.iter
    (fun (what, tiles, grounded_backplane, reduction) ->
      let cache = Cache.create ~dir:(fresh_cache_dir ()) in
      let run () =
        let m =
          Extractor.extract ~config:scale_cfg ~tiles ~grounded_backplane
            ?reduction ~cache ~tech:T.imec018 ~die:scale_die well_ports
        in
        (m, stats_exn ())
      in
      let cold, s_cold = run () in
      Alcotest.(check bool) (what ^ ": cold is no input-key hit") false
        s_cold.Extractor.input_key_hit;
      let warm, s_warm = run () in
      Alcotest.(check bool) (what ^ ": warm input-key hit") true
        s_warm.Extractor.input_key_hit;
      Alcotest.(check int) (what ^ ": every tile hits") s_cold.Extractor.tiles
        s_warm.Extractor.cache_hits;
      Alcotest.(check int) (what ^ ": no misses") 0 s_warm.Extractor.cache_misses;
      Alcotest.(check int) (what ^ ": no CG") 0 s_warm.Extractor.cg_iterations_total;
      Alcotest.(check (list int)) (what ^ ": cold grid summary")
        [ s_cold.Extractor.grid_cells; s_cold.Extractor.tiles;
          s_cold.Extractor.interface_nodes; s_cold.Extractor.ports ]
        [ s_warm.Extractor.grid_cells; s_warm.Extractor.tiles;
          s_warm.Extractor.interface_nodes; s_warm.Extractor.ports ];
      Alcotest.(check bool) (what ^ ": well caps present") true
        (warm.Macromodel.well_capacitance <> []);
      check_same_model what cold warm)
    [ ("untiled", (1, 1), false, None);
      ("2x2 tiled", (2, 2), false, None);
      ("grounded backplane", (2, 2), true, None);
      ("reduction-tagged", (2, 2), false, Some digest) ]

let tile_files cache =
  Sys.readdir (Cache.dir cache)
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tile")
  |> List.sort String.compare
  |> List.map (Filename.concat (Cache.dir cache))

let test_input_key_falls_through () =
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  let cold = extract_cached cache in
  List.iter
    (fun (what, damage, rejected) ->
      (match tile_files cache with
       | victim :: _ -> damage victim
       | [] -> Alcotest.fail "no tile files");
      let before = Cache.counters () in
      let m = extract_cached cache in
      let s = stats_exn () in
      let after = Cache.counters () in
      Alcotest.(check bool) (what ^ ": no input-key hit") false
        s.Extractor.input_key_hit;
      Alcotest.(check int) (what ^ ": exactly one miss") 1 s.Extractor.cache_misses;
      Alcotest.(check int) (what ^ ": three hits") 3 s.Extractor.cache_hits;
      Alcotest.(check int) (what ^ ": each tile looked up once") 4
        (after.Cache.lookups - before.Cache.lookups);
      Alcotest.(check int) (what ^ ": rejections") rejected
        (after.Cache.rejected - before.Cache.rejected);
      check_identical (what ^ ": identical result") cold.Macromodel.conductance
        m.Macromodel.conductance;
      ignore (extract_cached cache);
      Alcotest.(check bool) (what ^ ": recorded again") true
        (stats_exn ()).Extractor.input_key_hit)
    [ ("deleted", Sys.remove, 0);
      ( "corrupted",
        (fun f ->
          let oc = open_out_bin f in
          output_string oc "garbage";
          close_out oc),
        1 ) ]

let test_input_index_per_handle () =
  let dir = fresh_cache_dir () in
  let cold = extract_cached (Cache.create ~dir) in
  let fresh = Cache.create ~dir in
  let m = extract_cached fresh in
  let s = stats_exn () in
  Alcotest.(check bool) "new handle: empty index" false s.Extractor.input_key_hit;
  Alcotest.(check int) "new handle: tiles still hit on disk" 4 s.Extractor.cache_hits;
  Alcotest.(check int) "new handle: no CG" 0 s.Extractor.cg_iterations_total;
  check_identical "new handle: identical" cold.Macromodel.conductance
    m.Macromodel.conductance;
  ignore (extract_cached fresh);
  Alcotest.(check bool) "new handle records" true
    (stats_exn ()).Extractor.input_key_hit

let test_contact_scan_rekeys () =
  (* a tile's key hashes its branches, contact branches included, and
     the input-key index lives in its handle only: a directory filled
     under another contact scan (such as a backplane that also touched
     the surface) serves none of its tiles to a new handle *)
  let extract ~contact_resistance cache =
    let substrate = { T.imec018.T.substrate with T.contact_resistance } in
    Extractor.extract ~config:fast_config ~grounded_backplane:true ~cache
      ~tech:{ T.imec018 with T.substrate } ~die:die100 backplane_ports
  in
  let r = T.imec018.T.substrate.T.contact_resistance in
  let dir = fresh_cache_dir () in
  ignore (extract ~contact_resistance:(2.0 *. r) (Cache.create ~dir));
  let m = extract ~contact_resistance:r (Cache.create ~dir) in
  let s = stats_exn () in
  Alcotest.(check int) "no tile served" 0 s.Extractor.cache_hits;
  Alcotest.(check int) "one tile reduced" 1 s.Extractor.cache_misses;
  check_identical "uncached result"
    (extract ~contact_resistance:r (Cache.create ~dir:(fresh_cache_dir ())))
      .Macromodel.conductance
    m.Macromodel.conductance

let test_input_key_concurrent () =
  let reference =
    Extractor.extract ~config:scale_cfg ~tiles:(2, 2) ~tech:T.imec018
      ~die:scale_die well_ports
  in
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  let pool = Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* cold and racing, then warm and racing: every result agrees *)
  for round = 1 to 2 do
    Pool.map_array pool
      (fun _ ->
        Extractor.extract ~config:scale_cfg ~tiles:(2, 2) ~cache ~pool
          ~tech:T.imec018 ~die:scale_die well_ports)
      (Array.make 6 ())
    |> Array.iter (check_same_model (Printf.sprintf "round %d" round) reference)
  done

(* The key bytes are part of the on-disk contract: a warm --cache-dir
   stays warm only while a fixed die keeps its tile file name and its
   input key.  A deliberate change updates both digests here (and bumps
   Cache.format_version when every key changes).  This die's one tile
   retains 7 ports, so it takes the residual-corrected Schur form. *)
let test_key_bytes_pinned () =
  let config = { Grid.nx = 8; ny = 8; z_per_layer = Some [ 1; 1; 1; 1 ] } in
  let ports = scale_ports 7 in
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  ignore
    (Extractor.extract ~config ~cache ~tech:T.imec018 ~die:scale_die ports);
  Alcotest.(check (list string)) "tile file name"
    [ "f9ca098ef1aa2938c9c9faaae3efb685.tile" ]
    (List.map Filename.basename (tile_files cache));
  Alcotest.(check string) "input key" "523993163dc901f91632d2a3ec208a02"
    (Extractor.input_key ~config ~tech:T.imec018 ~die:scale_die ports)

(* Bit-exactness pins for the extraction: the digest of each tile's
   Schur block of a 2x2 extraction (in tile order), of the port matrix
   stitched from them, of the 4x4-tiled and the untiled port matrices,
   every entry printed with %h, and the exact CG iteration counts of the
   2x2 and untiled runs.  The Elimination-oracle comparisons above only hold
   to 1e-8, so a change in the reduction's rounding or iteration shows
   up here alone.  A deliberate numeric change updates the digests.
   The tiles retain more than 16 nodes and take the linear Schur form;
   the untiled run retains its 4 ports and takes the corrected one. *)
let digest_floats a =
  let b = Buffer.create (24 * Array.length a) in
  Array.iter (fun x -> Printf.bprintf b "%h;" x) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let stored_tile cache key =
  match Cache.lookup cache ~key with
  | Some m -> m
  | None -> Alcotest.failf "tile %s not stored" key

let test_extraction_bit_exact () =
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  let stitched = extract_cached cache in
  let tiled = stats_exn () in
  let input_key =
    Extractor.input_key ~config:scale_cfg ~tiles:(2, 2) ~tech:T.imec018
      ~die:scale_die scale_ports4
  in
  let blocks =
    match Cache.recall cache ~input_key with
    | None -> Alcotest.fail "cold run recorded nothing"
    | Some r ->
      Array.map
        (fun (e : Cache.recorded_tile) ->
          digest_floats (stored_tile cache e.Cache.content_key).Cache.matrix)
        r.Cache.tile_entries
  in
  Alcotest.(check (array string)) "tile Schur blocks"
    [| "dd3030bb6cb98dd2b22b31d2e372525f"; "ed5b64b2046f2c2cbb7b19588754dc83";
       "20cba40dae5dfba338fd00c52a54eb8b"; "9ef03869a142a6d6a1f1b674c4c95f41" |]
    blocks;
  Alcotest.(check int) "tiled CG iterations" 292
    tiled.Extractor.cg_iterations_total;
  Alcotest.(check string) "2x2 stitched port matrix"
    "b94e7636a9cbe98bf43462a1d02010ed"
    (digest_floats (mat_entries stitched.Macromodel.conductance));
  let stitched4 =
    Extractor.extract ~config:scale_cfg ~tiles:(4, 4)
      ~cache:(Cache.create ~dir:(fresh_cache_dir ()))
      ~tech:T.imec018 ~die:scale_die scale_ports4
  in
  Alcotest.(check string) "4x4 stitched port matrix"
    "28680f0c8cd8e9aa2c31239072cb2e12"
    (digest_floats (mat_entries stitched4.Macromodel.conductance));
  let untiled =
    Extractor.extract ~config:scale_cfg
      ~cache:(Cache.create ~dir:(fresh_cache_dir ()))
      ~tech:T.imec018 ~die:scale_die scale_ports4
  in
  Alcotest.(check string) "untiled port matrix"
    "c9531cd88e32c912cedb5af652c187aa"
    (digest_floats (mat_entries untiled.Macromodel.conductance));
  Alcotest.(check int) "untiled CG iterations" 59
    (stats_exn ()).Extractor.cg_iterations_total

(* every stored tile records the CG iterations that produced it *)
let test_stored_iterations () =
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  ignore (extract_cached cache);
  let total = (stats_exn ()).Extractor.cg_iterations_total in
  let stored =
    List.fold_left
      (fun acc f ->
        let key = Filename.chop_suffix (Filename.basename f) ".tile" in
        acc + (stored_tile cache key).Cache.iterations)
      0 (tile_files cache)
  in
  Alcotest.(check int) "stored iterations sum to the run's total" total
    stored

(* The hierarchy coarsens only laterally, so the layered profile's
   anisotropy leaves the CG iteration count flat as the grid grows: on
   a 400 um die with five ports, 32^2 and 48^2 each take at most 150
   iterations over their five columns (full coarsening needed 601 at
   48^2). *)
let test_ladder_cg_budget () =
  let die = G.Rect.make 0.0 0.0 400.0 400.0 in
  let port name kind x0 y0 size =
    Port.v ~name ~kind [ G.Rect.make x0 y0 (x0 +. size) (y0 +. size) ]
  in
  let ports =
    [ port "agg" Port.Resistive 40.0 40.0 80.0;
      port "vic" Port.Resistive 280.0 280.0 80.0;
      port "ring" Port.Resistive 40.0 280.0 80.0;
      port "tap" Port.Resistive 280.0 40.0 80.0;
      port "probe" Port.Probe 180.0 180.0 40.0 ]
  in
  List.iter
    (fun n ->
      ignore
        (Extractor.extract
           ~config:{ Grid.nx = n; ny = n; z_per_layer = Some [ 1; 1; 1; 1 ] }
           ~tech:T.imec018 ~die ports);
      let its = (stats_exn ()).Extractor.cg_iterations_total in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d: %d CG iterations <= 150" n n its)
        true (its <= 150))
    [ 32; 48 ]

(* A 2x2-tiled 40x40x4 die, one 80 um contact per tile: each tile's
   interior (19x19x4 = 1,444 cells) fits under Mg's default coarse
   limit, so the tile is reduced through one band factor.  PCG then
   converges in one iteration per column it solves, and the stitched matrix
   still agrees with the untiled elimination oracle. *)
let test_one_level_tile () =
  let config = { Grid.nx = 40; ny = 40; z_per_layer = Some [ 1; 1; 1; 1 ] } in
  let die = G.Rect.make 0.0 0.0 400.0 400.0 in
  let contact name x y =
    Port.v ~name ~kind:Port.Resistive [ G.Rect.make x y (x +. 80.0) (y +. 80.0) ]
  in
  let ports =
    [ contact "a" 40.0 40.0; contact "b" 280.0 40.0; contact "c" 40.0 280.0;
      contact "d" 280.0 280.0 ]
  in
  let plan = Sn_substrate.Tiling.plan ~tiles:(2, 2) ~nx:40 ~ny:40 ~nz:4 in
  Array.iter
    (fun tl ->
      let w, h, d = Sn_substrate.Tiling.interior_dims tl ~nz:4 in
      Alcotest.(check bool)
        (Printf.sprintf "interior %dx%dx%d between 601 and 1500 cells" w h d)
        true
        (w * h * d > 600 && w * h * d <= 1500))
    plan.Sn_substrate.Tiling.tiles;
  let cache = Cache.create ~dir:(fresh_cache_dir ()) in
  let tiled =
    Extractor.extract ~config ~tiles:(2, 2) ~cache ~tech:T.imec018 ~die ports
  in
  Alcotest.(check int) "one-level hierarchy" 1 (stats_exn ()).Extractor.mg_levels;
  List.iter
    (fun f ->
      let m =
        stored_tile cache (Filename.chop_suffix (Filename.basename f) ".tile")
      in
      (* every retained column needs a solve but the cut corner's, one
         cell per layer, whose neighbours are all interface cells *)
      Alcotest.(check int) "one CG iteration per solved column"
        (Array.length m.Cache.labels - 4) m.Cache.iterations)
    (tile_files cache);
  let direct = Elim.reduce_grid ~config ~tech:T.imec018 ~die ports in
  let err =
    max_rel_err direct.Macromodel.conductance tiled.Macromodel.conductance
  in
  Alcotest.(check bool)
    (Printf.sprintf "tiled vs elimination %.3g <= 1e-8" err)
    true (err <= 1e-8)

(* The linear Schur form S = A_bb - B X of an untiled die, each column
   of X an MG-PCG solve to [tol], built from the numerics alone on the
   grid and contacts {!Elim.reduce_grid} discretizes, with the CG
   iterations it took. *)
let linear_schur ~config ~tol ~die ports =
  let profile = T.imec018.T.substrate in
  let rects = List.concat_map (fun (p : Port.t) -> p.Port.region) ports in
  let grid =
    Grid.build
      ~snap_x:(List.concat_map (fun r -> [ r.G.Rect.x0; r.G.Rect.x1 ]) rects)
      ~snap_y:(List.concat_map (fun r -> [ r.G.Rect.y0; r.G.Rect.y1 ]) rects)
      config ~die profile
  in
  let n = Grid.cell_count grid and np = List.length ports in
  let branches = ref [] in
  Grid.iter_conductances grid (fun a b g -> branches := (a, b, g) :: !branches);
  let um2 = T.micron *. T.micron in
  for iy = 0 to Grid.ny grid - 1 do
    for ix = 0 to Grid.nx grid - 1 do
      let cell_rect = Grid.surface_cell_rect grid ix iy in
      List.iteri
        (fun p (port : Port.t) ->
          let overlap =
            List.fold_left
              (fun acc r ->
                match G.Rect.intersection r cell_rect with
                | Some o -> acc +. G.Rect.area o
                | None -> acc)
              0.0 port.Port.region
          in
          if overlap > 0.0 then
            branches :=
              ( n + p,
                Grid.cell_index grid ix iy 0,
                overlap *. um2 /. profile.T.contact_resistance )
              :: !branches)
        ports
    done
  done;
  let br = Array.of_list (List.rev !branches) in
  let aii, b, abb =
    N.Sparse.laplacian_blocks ~interior:n ~retained:np ~len:(Array.length br)
      (Array.map (fun (i, _, _) -> i) br)
      (Array.map (fun (_, j, _) -> j) br)
      (Array.map (fun (_, _, g) -> g) br)
  in
  let mg = N.Mg.build ~dims:(Grid.nx grid, Grid.ny grid, Grid.nz grid) aii in
  let rp = N.Sparse.row_ptr b
  and ci = N.Sparse.col_idx b
  and bv = N.Sparse.values b in
  let s = Array.copy abb and iterations = ref 0 in
  for q = 0 to np - 1 do
    let rhs = Array.make n 0.0 in
    for e = rp.(q) to rp.(q + 1) - 1 do
      rhs.(ci.(e)) <- bv.(e)
    done;
    let res = N.Cg.solve ~tol ~precond:(N.Mg.precond mg) aii rhs in
    Alcotest.(check bool) "linear Schur column converged" true
      res.N.Cg.converged;
    iterations := !iterations + res.N.Cg.iterations;
    for a = 0 to np - 1 do
      for e = rp.(a) to rp.(a + 1) - 1 do
        s.((a * np) + q) <-
          s.((a * np) + q) -. (bv.(e) *. res.N.Cg.solution.(ci.(e)))
      done
    done
  done;
  for a = 0 to np - 1 do
    for c = a + 1 to np - 1 do
      let v = 0.5 *. (s.((a * np) + c) +. s.((c * np) + a)) in
      s.((a * np) + c) <- v;
      s.((c * np) + a) <- v
    done
  done;
  (N.Mat.of_flat ~rows:np ~cols:np s, !iterations)

(* The residual correction earns its looser tolerance.  On generated
   small dies (3 or 4 ports, untiled, 1,600 cells: a multi-level
   hierarchy, so each column takes many iterations), the extractor's
   corrected form at 1e-10 agrees with the exact elimination at least
   as tightly as the linear form at 1e-13, in fewer CG iterations,
   while the linear form at 1e-10 is off by two orders of magnitude
   more: a correction that did nothing would read as the latter. *)
let test_corrected_schur_accuracy () =
  let config = { Grid.nx = 20; ny = 20; z_per_layer = Some [ 1; 1; 1; 1 ] } in
  List.iter
    (fun seed ->
      let ports = scale_ports seed in
      let direct =
        (Elim.reduce_grid ~config ~tech:T.imec018 ~die:scale_die ports)
          .Macromodel.conductance
      in
      let m = Extractor.extract ~config ~tech:T.imec018 ~die:scale_die ports in
      let corrected = max_rel_err direct m.Macromodel.conductance
      and it_c = (stats_exn ()).Extractor.cg_iterations_total in
      let linear tol =
        let s, it = linear_schur ~config ~tol ~die:scale_die ports in
        (max_rel_err direct s, it)
      in
      let linear13, it_13 = linear 1e-13 and linear10, _ = linear 1e-10 in
      let what = Printf.sprintf "seed %d" seed in
      Alcotest.(check bool)
        (Printf.sprintf "%s: corrected 1e-10 %.3g <= linear 1e-13 %.3g" what
           corrected linear13)
        true (corrected <= linear13);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d CG iterations < %d" what it_c it_13)
        true (it_c < it_13);
      Alcotest.(check bool)
        (Printf.sprintf "%s: linear 1e-10 %.3g >= 100 x corrected %.3g" what
           linear10 corrected)
        true
        (linear10 >= 100.0 *. corrected))
    [ 1; 2 ]

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "tech",
      [
        Alcotest.test_case "imec018 valid" `Quick test_tech_valid;
        Alcotest.test_case "metal lookup" `Quick test_tech_lookup;
        Alcotest.test_case "20 ohm cm bulk" `Quick test_tech_bulk_resistivity;
        Alcotest.test_case "wire capacitances" `Quick test_wire_caps_positive;
        Alcotest.test_case "validation catches bad cards" `Quick
          test_tech_validation_catches;
      ] );
    ( "substrate.grid",
      [
        Alcotest.test_case "dimensions" `Quick test_grid_dimensions;
        Alcotest.test_case "depth preserved" `Quick test_grid_depth_preserved;
        Alcotest.test_case "bad configs" `Quick test_grid_bad_config;
        Alcotest.test_case "conductance stencil" `Quick
          test_grid_conductances_positive;
        Alcotest.test_case "surface cells" `Quick test_surface_cell_rect;
      ] );
    ( "substrate.ports",
      [
        Alcotest.test_case "ports from layout" `Quick test_port_of_layout;
        Alcotest.test_case "empty region" `Quick test_port_empty_region;
      ] );
    ( "substrate.extraction",
      [
        Alcotest.test_case "macromodel symmetric" `Quick test_macromodel_symmetric;
        Alcotest.test_case "laplacian row sums" `Quick test_macromodel_row_sums_zero;
        Alcotest.test_case "plausible spreading R" `Quick
          test_two_contact_resistance_plausible;
        Alcotest.test_case "R grows with separation" `Quick
          test_resistance_increases_with_separation;
        Alcotest.test_case "R falls with contact area" `Quick
          test_resistance_decreases_with_contact_area;
        Alcotest.test_case "floating divider" `Quick test_divider_reciprocity;
        Alcotest.test_case "guard ring shields" `Quick test_guard_ring_shields;
        Alcotest.test_case "well capacitance" `Quick test_well_capacitance_reported;
        Alcotest.test_case "port outside die" `Quick test_port_outside_die_rejected;
        Alcotest.test_case "solve constraint errors" `Quick
          test_solve_constraint_errors;
        Alcotest.test_case "resistor export" `Quick test_to_resistors;
        Alcotest.test_case "grounded backplane" `Quick
          test_grounded_backplane_shields;
        Alcotest.test_case "elimination: series chain" `Quick
          test_elimination_simple_chain;
        Alcotest.test_case "elimination: star-mesh" `Quick
          test_elimination_star;
        Alcotest.test_case "elimination matches Schur" `Quick
          test_elimination_matches_schur;
        Alcotest.test_case "elimination input checks" `Quick
          test_elimination_rejects_bad_input;
        Alcotest.test_case "epi wafer distance-insensitive" `Slow
          test_epi_distance_insensitive;
        Alcotest.test_case "epi card valid" `Quick test_epi_card_valid;
        Alcotest.test_case "grid convergence" `Slow test_grid_convergence;
      ] );
    ( "substrate.scale",
      [
        qcheck qcheck_tiled_matches_direct;
        Alcotest.test_case "solvers agree" `Quick test_solvers_agree;
        Alcotest.test_case "cache round trip" `Quick test_cache_round_trip;
        Alcotest.test_case "reduction cache namespace" `Quick
          test_cache_reduction_namespace;
        Alcotest.test_case "cache certificates" `Quick
          test_cache_certificates;
        Alcotest.test_case "jobs identity" `Quick test_jobs_identity;
        Alcotest.test_case "lookup refuses bad entries" `Quick
          test_lookup_refuses_bad;
        Alcotest.test_case "store counts completed writes" `Quick
          test_store_counts_writes;
        qcheck qcheck_input_key_fields;
        Alcotest.test_case "input-key hit identical" `Quick
          test_input_key_hit_identical;
        Alcotest.test_case "input-key hit falls through" `Quick
          test_input_key_falls_through;
        Alcotest.test_case "input-key index per handle" `Quick
          test_input_index_per_handle;
        Alcotest.test_case "contact scan re-keys tiles" `Quick
          test_contact_scan_rekeys;
        Alcotest.test_case "input-key concurrent extracts" `Quick
          test_input_key_concurrent;
        Alcotest.test_case "key bytes pinned" `Quick test_key_bytes_pinned;
        Alcotest.test_case "extraction bit-exact" `Quick
          test_extraction_bit_exact;
        Alcotest.test_case "stored tiles record CG iterations" `Quick
          test_stored_iterations;
        Alcotest.test_case "one-level tiles" `Quick test_one_level_tile;
        Alcotest.test_case "CG budget on the 32-48 ladder" `Quick
          test_ladder_cg_budget;
        Alcotest.test_case "corrected Schur form accuracy" `Slow
          test_corrected_schur_accuracy;
      ] );
  ]
