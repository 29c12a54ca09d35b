(* Tests for sn_layout: cells, flattening, queries, text round trip. *)

module G = Sn_geometry
module L = Sn_layout
module Layer = L.Layer
module Shape = L.Shape
module Cell = L.Cell
module Layout = L.Layout
module Io = L.Layout_io

let rect x0 y0 x1 y1 = G.Rect.make x0 y0 x1 y1

let unit_cell =
  Cell.make ~name:"unit"
    [ Shape.rect ~layer:(Layer.Metal 1) ~net:"gnd" (rect 0.0 0.0 1.0 1.0) ]

let test_layer_names () =
  let roundtrip l = Layer.of_name (Layer.name l) = Some l in
  List.iter
    (fun l -> Alcotest.(check bool) (Layer.name l) true (roundtrip l))
    [ Layer.Substrate_contact; Layer.Nwell; Layer.Diffusion; Layer.Poly;
      Layer.Metal 1; Layer.Metal 6; Layer.Via 0; Layer.Via 5; Layer.Pad;
      Layer.Backgate_probe "m1" ];
  Alcotest.(check bool) "unknown" true (Layer.of_name "bogus" = None)

let test_flatten_translation () =
  let top =
    Cell.make ~name:"top"
      ~instances:
        [ { Cell.cell_name = "unit";
            transform = G.Transform.make G.Transform.R0 (G.Point.v 10.0 20.0) } ]
      []
  in
  let l = Layout.create ~top:"top" [ top; unit_cell ] in
  match Layout.flatten l with
  | [ s ] ->
    let b = Shape.bbox s in
    Alcotest.(check (float 1e-9)) "x moved" 10.0 b.G.Rect.x0;
    Alcotest.(check (float 1e-9)) "y moved" 20.0 b.G.Rect.y0
  | shapes ->
    Alcotest.failf "expected 1 shape, got %d" (List.length shapes)

let test_flatten_nested () =
  let mid =
    Cell.make ~name:"mid"
      ~instances:
        [ { Cell.cell_name = "unit";
            transform = G.Transform.make G.Transform.R0 (G.Point.v 1.0 0.0) };
          { Cell.cell_name = "unit";
            transform = G.Transform.make G.Transform.R0 (G.Point.v 3.0 0.0) } ]
      []
  in
  let top =
    Cell.make ~name:"top"
      ~instances:
        [ { Cell.cell_name = "mid";
            transform = G.Transform.make G.Transform.R0 (G.Point.v 0.0 5.0) };
          { Cell.cell_name = "mid";
            transform = G.Transform.make G.Transform.R0 (G.Point.v 0.0 8.0) } ]
      []
  in
  let l = Layout.create ~top:"top" [ top; mid; unit_cell ] in
  Alcotest.(check int) "4 shapes" 4 (List.length (Layout.flatten l));
  let b = Layout.bbox l in
  Alcotest.(check (float 1e-9)) "bbox x1" 4.0 b.G.Rect.x1;
  Alcotest.(check (float 1e-9)) "bbox y1" 9.0 b.G.Rect.y1

let test_unknown_cell () =
  let top =
    Cell.make ~name:"top"
      ~instances:
        [ { Cell.cell_name = "missing"; transform = G.Transform.identity } ]
      []
  in
  Alcotest.check_raises "unknown cell" (Layout.Unknown_cell "missing")
    (fun () -> ignore (Layout.create ~top:"top" [ top ]))

let test_recursive_hierarchy () =
  let a =
    Cell.make ~name:"a"
      ~instances:[ { Cell.cell_name = "b"; transform = G.Transform.identity } ]
      []
  in
  let b =
    Cell.make ~name:"b"
      ~instances:[ { Cell.cell_name = "a"; transform = G.Transform.identity } ]
      []
  in
  Alcotest.check_raises "cycle" (Layout.Recursive_hierarchy "a") (fun () ->
      ignore (Layout.create ~top:"a" [ a; b ]))

let test_duplicate_cell () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Layout.create: duplicate cell unit") (fun () ->
      ignore (Layout.create ~top:"unit" [ unit_cell; unit_cell ]))

let sample_layout () =
  let cell =
    Cell.make ~name:"chip"
      [
        Shape.rect ~layer:Layer.Substrate_contact ~net:"gnd"
          (rect 0.0 0.0 2.0 2.0);
        Shape.rect ~layer:Layer.Nwell ~net:"vdd" (rect 5.0 5.0 9.0 9.0);
        Shape.path ~layer:(Layer.Metal 1) ~net:"gnd" ~from_terminal:"pad"
          ~to_terminal:"ring"
          (G.Path.make ~width:0.5 [ G.Point.v 0.0 0.0; G.Point.v 20.0 0.0 ]);
      ]
  in
  Layout.create ~top:"chip" [ cell ]

let test_queries () =
  let l = sample_layout () in
  Alcotest.(check int) "metal1 shapes" 1
    (List.length
       (List.filter
          (fun (s : Shape.t) -> Layer.equal s.Shape.layer (Layer.Metal 1))
          (Layout.flatten l)));
  Alcotest.(check int) "gnd shapes" 2
    (List.length
       (List.filter
          (fun (s : Shape.t) -> String.equal s.Shape.net "gnd")
          (Layout.flatten l)));
  Alcotest.(check (list string)) "nets" [ "gnd"; "vdd" ] (Layout.nets l)

let test_io_roundtrip () =
  let l = sample_layout () in
  let text = Io.to_string l in
  let l2 = Io.of_string text in
  Alcotest.(check string) "top preserved" (Layout.top_name l) (Layout.top_name l2);
  Alcotest.(check int) "shape count" (List.length (Layout.flatten l))
    (List.length (Layout.flatten l2));
  Alcotest.(check (list string)) "nets preserved" (Layout.nets l) (Layout.nets l2);
  (* second round trip must be a fixed point *)
  Alcotest.(check string) "idempotent" text (Io.to_string l2)

let test_io_hierarchy_roundtrip () =
  let top =
    Cell.make ~name:"top"
      ~instances:
        [ { Cell.cell_name = "unit";
            transform = G.Transform.make G.Transform.R90 (G.Point.v 2.0 3.0) } ]
      []
  in
  let l = Layout.create ~top:"top" [ top; unit_cell ] in
  let l2 = Io.of_string (Io.to_string l) in
  match (Layout.flatten l, Layout.flatten l2) with
  | [ a ], [ b ] ->
    Alcotest.(check bool) "transformed bbox preserved" true
      (G.Rect.equal (Shape.bbox a) (Shape.bbox b))
  | _ -> Alcotest.fail "expected single shapes"

let test_io_errors () =
  let check_fails name text =
    match Io.of_string text with
    | exception Io.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Parse_error" name
  in
  check_fails "missing header" "cell a\nend\n";
  check_fails "rect outside cell" "layout top=a\nrect metal1 n 0 0 1 1\n";
  check_fails "bad layer" "layout top=a\ncell a\nrect bogus n 0 0 1 1\nend\n";
  check_fails "bad number" "layout top=a\ncell a\nrect metal1 n 0 0 1 x\nend\n";
  check_fails "odd path coords"
    "layout top=a\ncell a\npath metal1 n 1 - - 0 0 1\nend\n"

let test_io_file () =
  let l = sample_layout () in
  let path = Filename.temp_file "snoise_layout" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Io.to_string l));
      let l2 = Io.load path in
      Alcotest.(check int) "shapes" 3 (List.length (Layout.flatten l2)))

let test_map_shapes_widening () =
  let l = sample_layout () in
  let widened =
    Layout.map_shapes
      (fun s ->
        if s.Shape.net = "gnd" && Layer.is_metal s.Shape.layer then
          Shape.scale_path_width 2.0 s
        else s)
      l
  in
  let path_width layout =
    match
      List.filter_map
        (fun (s : Shape.t) ->
          match s.Shape.geometry with
          | Shape.Path { path; _ } -> Some (G.Path.width path)
          | Shape.Rect _ -> None)
        (Layout.flatten layout)
    with
    | [ w ] -> w
    | _ -> Alcotest.fail "expected one path"
  in
  Alcotest.(check (float 1e-9)) "width doubled" (2.0 *. path_width l)
    (path_width widened)

(* ------------------------------------------------------------------ *)
(* DRC *)

module Drc = L.Drc
module T = Sn_tech.Tech

let test_drc_clean () =
  let l =
    Layout.create ~top:"c"
      [ Cell.make ~name:"c"
          [ Shape.path ~layer:(Layer.Metal 1) ~net:"a" ~from_terminal:"x"
              ~to_terminal:"y"
              (G.Path.make ~width:1.0 [ G.Point.v 0.0 0.0; G.Point.v 9.0 0.0 ]) ] ]
  in
  Alcotest.(check int) "clean" 0 (List.length (Drc.check ~tech:T.imec018 l))

let test_drc_min_width () =
  let l =
    Layout.create ~top:"c"
      [ Cell.make ~name:"c"
          [ Shape.path ~layer:(Layer.Metal 1) ~net:"a" ~from_terminal:"x"
              ~to_terminal:"y"
              (G.Path.make ~width:0.1 [ G.Point.v 0.0 0.0; G.Point.v 9.0 0.0 ]) ] ]
  in
  match Drc.check ~tech:T.imec018 l with
  | [ Drc.Min_width { width; minimum; _ } ] ->
    Alcotest.(check (float 1e-9)) "width" 0.1 width;
    Alcotest.(check bool) "minimum sensible" true (minimum > width)
  | vs -> Alcotest.failf "expected 1 min-width violation, got %d" (List.length vs)

let test_drc_net_short () =
  let l =
    Layout.create ~top:"c"
      [ Cell.make ~name:"c"
          [ Shape.rect ~layer:(Layer.Metal 1) ~net:"a" (rect 0.0 0.0 5.0 5.0);
            Shape.rect ~layer:(Layer.Metal 1) ~net:"b" (rect 4.0 4.0 9.0 9.0) ] ]
  in
  match Drc.check ~tech:T.imec018 l with
  | [ Drc.Net_short { net_a; net_b; _ } ] ->
    Alcotest.(check (list string)) "nets" [ "a"; "b" ]
      (List.sort compare [ net_a; net_b ])
  | vs -> Alcotest.failf "expected 1 short, got %d" (List.length vs)

let test_drc_same_net_overlap_ok () =
  let l =
    Layout.create ~top:"c"
      [ Cell.make ~name:"c"
          [ Shape.rect ~layer:(Layer.Metal 1) ~net:"a" (rect 0.0 0.0 5.0 5.0);
            Shape.rect ~layer:(Layer.Metal 1) ~net:"a" (rect 4.0 4.0 9.0 9.0) ] ]
  in
  Alcotest.(check int) "no violation" 0
    (List.length (Drc.check ~tech:T.imec018 l))

let test_drc_testchip_layouts_clean () =
  (* the generators must produce DRC-clean layouts *)
  let check_clean name layout =
    let vs = Drc.check ~tech:T.imec018 layout in
    List.iter (fun v -> Format.eprintf "%s: %a@." name Drc.pp v) vs;
    Alcotest.(check int) (name ^ " clean") 0 (List.length vs)
  in
  check_clean "nmos"
    (Sn_testchip.Nmos_structure.structure Sn_testchip.Nmos_structure.default)
      .Sn_testchip.Structure.layout;
  check_clean "vco" (Sn_testchip.Vco_chip.layout Sn_testchip.Vco_chip.default)

let suites =
  [
    ( "layout",
      [
        Alcotest.test_case "layer name round trip" `Quick test_layer_names;
        Alcotest.test_case "flatten translation" `Quick test_flatten_translation;
        Alcotest.test_case "flatten nested" `Quick test_flatten_nested;
        Alcotest.test_case "unknown cell" `Quick test_unknown_cell;
        Alcotest.test_case "recursive hierarchy" `Quick test_recursive_hierarchy;
        Alcotest.test_case "duplicate cell" `Quick test_duplicate_cell;
        Alcotest.test_case "queries" `Quick test_queries;
        Alcotest.test_case "io round trip" `Quick test_io_roundtrip;
        Alcotest.test_case "io hierarchy round trip" `Quick test_io_hierarchy_roundtrip;
        Alcotest.test_case "io parse errors" `Quick test_io_errors;
        Alcotest.test_case "io file save/load" `Quick test_io_file;
        Alcotest.test_case "ground line widening" `Quick test_map_shapes_widening;
      ] );
    ( "layout.drc",
      [
        Alcotest.test_case "clean layout" `Quick test_drc_clean;
        Alcotest.test_case "min width" `Quick test_drc_min_width;
        Alcotest.test_case "net short" `Quick test_drc_net_short;
        Alcotest.test_case "same-net overlap ok" `Quick
          test_drc_same_net_overlap_ok;
        Alcotest.test_case "testchip layouts clean" `Quick
          test_drc_testchip_layouts_clean;
      ] );
  ]
