(* Tests for sn_geometry. *)

module Point = Sn_geometry.Point
module Rect = Sn_geometry.Rect
module Path = Sn_geometry.Path
module Transform = Sn_geometry.Transform

open Helpers

let test_point_ops () =
  let a = Point.v 1.0 2.0 and b = Point.v 4.0 6.0 in
  check_float "distance" 5.0 (Point.distance a b);
  Alcotest.(check bool) "add" true
    (Point.equal (Point.add a b) (Point.v 5.0 8.0))

let test_rect_normalization () =
  let r = Rect.make 5.0 7.0 1.0 2.0 in
  check_float "x0" 1.0 r.Rect.x0;
  check_float "y1" 7.0 r.Rect.y1;
  check_float "area" 20.0 (Rect.area r);
  check_float "perimeter" 18.0 (Rect.perimeter r)

let test_rect_intersection () =
  let a = Rect.make 0.0 0.0 4.0 4.0 in
  let b = Rect.make 2.0 2.0 6.0 6.0 in
  Alcotest.(check bool) "intersects" true (Rect.intersects a b);
  (match Rect.intersection a b with
   | Some o ->
     check_float "overlap area" 4.0 (Rect.area o)
   | None -> Alcotest.fail "expected overlap");
  let c = Rect.make 10.0 10.0 11.0 11.0 in
  Alcotest.(check bool) "disjoint" false (Rect.intersects a c);
  Alcotest.(check bool) "no intersection" true (Rect.intersection a c = None)

let test_rect_touching_edges () =
  let a = Rect.make 0.0 0.0 1.0 1.0 in
  let b = Rect.make 1.0 0.0 2.0 1.0 in
  Alcotest.(check bool) "touching counts" true (Rect.intersects a b);
  match Rect.intersection a b with
  | Some o -> check_float "degenerate overlap" 0.0 (Rect.area o)
  | None -> Alcotest.fail "expected degenerate overlap"

let test_rect_contains_expand () =
  let r = Rect.make 0.0 0.0 2.0 2.0 in
  Alcotest.(check bool) "contains center" true
    (Rect.contains_point r (Point.v 1.0 1.0));
  Alcotest.(check bool) "boundary closed" true
    (Rect.contains_point r (Point.v 0.0 2.0));
  Alcotest.(check bool) "outside" false
    (Rect.contains_point r (Point.v 3.0 1.0));
  let e = Rect.expand 1.0 r in
  check_float "expanded width" 4.0 (Rect.width e);
  Alcotest.check_raises "over-shrink"
    (Invalid_argument "Rect.expand: negative margin inverts rectangle")
    (fun () -> ignore (Rect.expand (-2.0) r))

let test_rect_union () =
  let a = Rect.make 0.0 0.0 1.0 1.0 and b = Rect.make 3.0 4.0 5.0 6.0 in
  let u = Rect.union_bbox a b in
  check_float "union width" 5.0 (Rect.width u);
  check_float "union height" 6.0 (Rect.height u)

let test_path_length_squares () =
  let p =
    Path.make ~width:0.5
      [ Point.v 0.0 0.0; Point.v 10.0 0.0; Point.v 10.0 5.0 ]
  in
  check_float "length" 15.0 (Path.length p);
  check_float "squares" 30.0 (Path.squares p);
  Alcotest.(check int) "segments" 2 (List.length (Path.segments p))

let test_path_bbox_includes_width () =
  let p = Path.make ~width:2.0 [ Point.v 0.0 0.0; Point.v 10.0 0.0 ] in
  let b = Path.bbox p in
  check_float "y extent includes half-width" (-1.0) b.Rect.y0;
  check_float "x extent includes half-width" 11.0 b.Rect.x1

let test_path_invalid () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Path.make: width must be > 0") (fun () ->
      ignore (Path.make ~width:0.0 [ Point.v 0.0 0.0; Point.v 1.0 0.0 ]));
  Alcotest.check_raises "one point"
    (Invalid_argument "Path.make: need at least 2 points") (fun () ->
      ignore (Path.make ~width:1.0 [ Point.v 0.0 0.0 ]))

let test_path_scale_width () =
  let p = Path.make ~width:1.0 [ Point.v 0.0 0.0; Point.v 4.0 0.0 ] in
  let w = Path.scale_width 2.0 p in
  check_float "width doubled" 2.0 (Path.width w);
  check_float "squares halved" (Path.squares p /. 2.0) (Path.squares w)

let test_transform_rotations () =
  let p = Point.v 1.0 0.0 in
  let at o = Transform.apply_point (Transform.make o Point.zero) p in
  Alcotest.(check bool) "R90" true (Point.equal (at Transform.R90) (Point.v 0.0 1.0));
  Alcotest.(check bool) "R180" true (Point.equal (at Transform.R180) (Point.v (-1.0) 0.0));
  Alcotest.(check bool) "R270" true (Point.equal (at Transform.R270) (Point.v 0.0 (-1.0)));
  Alcotest.(check bool) "MY" true (Point.equal (at Transform.MY) (Point.v (-1.0) 0.0))

let test_transform_compose () =
  let t1 = Transform.make Transform.R90 (Point.v 1.0 0.0) in
  let t2 = Transform.make Transform.MX (Point.v 0.0 2.0) in
  let p = Point.v 3.0 4.0 in
  let direct = Transform.apply_point t1 (Transform.apply_point t2 p) in
  let composed = Transform.apply_point (Transform.compose t1 t2) p in
  Alcotest.(check bool) "compose law" true (Point.equal direct composed)

let prop_compose_associative =
  let orient =
    QCheck.Gen.oneofl
      Transform.[ R0; R90; R180; R270; MX; MY; MXR90; MYR90 ]
  in
  let transform_gen =
    QCheck.Gen.(
      map3
        (fun o dx dy -> Transform.make o (Point.v (float_of_int dx) (float_of_int dy)))
        orient (int_range (-5) 5) (int_range (-5) 5))
  in
  QCheck.Test.make ~count:200 ~name:"transform composition is associative"
    (QCheck.make
       QCheck.Gen.(
         tup2 (tup2 transform_gen transform_gen)
           (tup2 transform_gen
              (map2 (fun x y -> Point.v (float_of_int x) (float_of_int y))
                 (int_range (-9) 9) (int_range (-9) 9)))))
    (fun ((a, b), (c, p)) ->
      let lhs =
        Transform.apply_point (Transform.compose (Transform.compose a b) c) p
      in
      let rhs =
        Transform.apply_point (Transform.compose a (Transform.compose b c)) p
      in
      Point.equal lhs rhs)

let prop_rect_intersection_commutes =
  let rect_gen =
    QCheck.Gen.(
      map (fun (a, b, c, d) ->
          Rect.make (float_of_int a) (float_of_int b) (float_of_int c)
            (float_of_int d))
        (tup4 (int_range (-10) 10) (int_range (-10) 10) (int_range (-10) 10)
           (int_range (-10) 10)))
  in
  QCheck.Test.make ~count:200 ~name:"rect intersection commutes"
    (QCheck.make QCheck.Gen.(tup2 rect_gen rect_gen))
    (fun (a, b) ->
      match (Rect.intersection a b, Rect.intersection b a) with
      | None, None -> true
      | Some x, Some y -> Rect.equal x y
      | _ -> false)

let prop_rect_intersection_within =
  let rect_gen =
    QCheck.Gen.(
      map (fun (a, b, c, d) ->
          Rect.make (float_of_int a) (float_of_int b) (float_of_int c)
            (float_of_int d))
        (tup4 (int_range (-10) 10) (int_range (-10) 10) (int_range (-10) 10)
           (int_range (-10) 10)))
  in
  QCheck.Test.make ~count:200 ~name:"intersection area <= both operands"
    (QCheck.make QCheck.Gen.(tup2 rect_gen rect_gen))
    (fun (a, b) ->
      match Rect.intersection a b with
      | None -> true
      | Some o -> Rect.area o <= Rect.area a +. 1e-9
                  && Rect.area o <= Rect.area b +. 1e-9)

let suites =
  [
    ( "geometry",
      [
        Alcotest.test_case "point ops" `Quick test_point_ops;
        Alcotest.test_case "rect normalization" `Quick test_rect_normalization;
        Alcotest.test_case "rect intersection" `Quick test_rect_intersection;
        Alcotest.test_case "touching edges" `Quick test_rect_touching_edges;
        Alcotest.test_case "contains / expand" `Quick test_rect_contains_expand;
        Alcotest.test_case "union bbox" `Quick test_rect_union;
        Alcotest.test_case "path length and squares" `Quick test_path_length_squares;
        Alcotest.test_case "path bbox width" `Quick test_path_bbox_includes_width;
        Alcotest.test_case "path validation" `Quick test_path_invalid;
        Alcotest.test_case "path widening" `Quick test_path_scale_width;
        Alcotest.test_case "rotations" `Quick test_transform_rotations;
        Alcotest.test_case "compose" `Quick test_transform_compose;
        qcheck prop_compose_associative;
        qcheck prop_rect_intersection_commutes;
        qcheck prop_rect_intersection_within;
      ] );
  ]
