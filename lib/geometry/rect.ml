type t = { x0 : float; y0 : float; x1 : float; y1 : float }

let make xa ya xb yb =
  { x0 = Float.min xa xb; y0 = Float.min ya yb;
    x1 = Float.max xa xb; y1 = Float.max ya yb }

let of_corners (a : Point.t) (b : Point.t) = make a.Point.x a.Point.y b.Point.x b.Point.y

let of_center (c : Point.t) ~width ~height =
  if width < 0.0 || height < 0.0 then
    invalid_arg "Rect.of_center: negative dimension";
  make
    (c.Point.x -. (width /. 2.0))
    (c.Point.y -. (height /. 2.0))
    (c.Point.x +. (width /. 2.0))
    (c.Point.y +. (height /. 2.0))

let width r = r.x1 -. r.x0
let height r = r.y1 -. r.y0
let area r = width r *. height r
let perimeter r = 2.0 *. (width r +. height r)

let contains_point r (p : Point.t) =
  p.Point.x >= r.x0 && p.Point.x <= r.x1 && p.Point.y >= r.y0 && p.Point.y <= r.y1

let intersects a b =
  a.x0 <= b.x1 && b.x0 <= a.x1 && a.y0 <= b.y1 && b.y0 <= a.y1

let intersection a b =
  if intersects a b then
    Some
      { x0 = Float.max a.x0 b.x0; y0 = Float.max a.y0 b.y0;
        x1 = Float.min a.x1 b.x1; y1 = Float.min a.y1 b.y1 }
  else None

let union_bbox a b =
  { x0 = Float.min a.x0 b.x0; y0 = Float.min a.y0 b.y0;
    x1 = Float.max a.x1 b.x1; y1 = Float.max a.y1 b.y1 }

let expand m r =
  let r' = { x0 = r.x0 -. m; y0 = r.y0 -. m; x1 = r.x1 +. m; y1 = r.y1 +. m } in
  if r'.x0 > r'.x1 || r'.y0 > r'.y1 then
    invalid_arg "Rect.expand: negative margin inverts rectangle";
  r'

let bbox_of_points = function
  | [] -> invalid_arg "Rect.bbox_of_points: empty list"
  | p :: rest ->
    List.fold_left
      (fun acc (q : Point.t) ->
        { x0 = Float.min acc.x0 q.Point.x; y0 = Float.min acc.y0 q.Point.y;
          x1 = Float.max acc.x1 q.Point.x; y1 = Float.max acc.y1 q.Point.y })
      { x0 = p.Point.x; y0 = p.Point.y; x1 = p.Point.x; y1 = p.Point.y }
      rest

let equal a b =
  let tol = 1e-9 in
  Float.abs (a.x0 -. b.x0) <= tol
  && Float.abs (a.y0 -. b.y0) <= tol
  && Float.abs (a.x1 -. b.x1) <= tol
  && Float.abs (a.y1 -. b.y1) <= tol
