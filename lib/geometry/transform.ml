type orientation = R0 | R90 | R180 | R270 | MX | MY | MXR90 | MYR90

type t = { orientation : orientation; offset : Point.t }

let identity = { orientation = R0; offset = Point.zero }
let make orientation offset = { orientation; offset }

let rotate o (p : Point.t) =
  let { Point.x; y } = p in
  match o with
  | R0 -> p
  | R90 -> Point.v (-.y) x
  | R180 -> Point.v (-.x) (-.y)
  | R270 -> Point.v y (-.x)
  | MX -> Point.v x (-.y)
  | MY -> Point.v (-.x) y
  | MXR90 -> Point.v y x
  | MYR90 -> Point.v (-.y) (-.x)

let apply_point t p = Point.add (rotate t.orientation p) t.offset

let apply_rect t r =
  let open Rect in
  let a = apply_point t (Point.v r.x0 r.y0) in
  let b = apply_point t (Point.v r.x1 r.y1) in
  of_corners a b

let apply_path t p =
  Path.make ~width:(Path.width p) (List.map (apply_point t) (Path.points p))

(* Composition of the dihedral group, identified by the images of the
   basis vectors.  The eight orientations cover every combination, so
   the lookup is total. *)
let compose_orientation outer inner =
  let ex = rotate outer (rotate inner (Point.v 1.0 0.0)) in
  let ey = rotate outer (rotate inner (Point.v 0.0 1.0)) in
  match (ex.Point.x, ex.Point.y, ey.Point.x, ey.Point.y) with
  | 1.0, 0.0, 0.0, 1.0 -> R0
  | 0.0, 1.0, -1.0, 0.0 -> R90
  | -1.0, 0.0, 0.0, -1.0 -> R180
  | 0.0, -1.0, 1.0, 0.0 -> R270
  | 1.0, 0.0, 0.0, -1.0 -> MX
  | -1.0, 0.0, 0.0, 1.0 -> MY
  | 0.0, 1.0, 1.0, 0.0 -> MXR90
  | 0.0, -1.0, -1.0, 0.0 -> MYR90
  | _ -> assert false

let compose outer inner =
  {
    orientation = compose_orientation outer.orientation inner.orientation;
    offset = apply_point outer inner.offset;
  }

let orientation_name = function
  | R0 -> "R0"
  | R90 -> "R90"
  | R180 -> "R180"
  | R270 -> "R270"
  | MX -> "MX"
  | MY -> "MY"
  | MXR90 -> "MXR90"
  | MYR90 -> "MYR90"

let orientation_of_name = function
  | "R0" -> Some R0
  | "R90" -> Some R90
  | "R180" -> Some R180
  | "R270" -> Some R270
  | "MX" -> Some MX
  | "MY" -> Some MY
  | "MXR90" -> Some MXR90
  | "MYR90" -> Some MYR90
  | _ -> None

let pp fmt t =
  Format.fprintf fmt "%s@%a" (orientation_name t.orientation) Point.pp t.offset
