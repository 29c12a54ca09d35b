type t = { points : Point.t list; width : float }

let make ~width points =
  if width <= 0.0 then invalid_arg "Path.make: width must be > 0";
  if List.length points < 2 then invalid_arg "Path.make: need at least 2 points";
  { points; width }

let points p = p.points
let width p = p.width

let rec pairwise = function
  | a :: (b :: _ as rest) -> (a, b) :: pairwise rest
  | [ _ ] | [] -> []

let segments p = pairwise p.points

let length p =
  List.fold_left (fun acc (a, b) -> acc +. Point.distance a b) 0.0 (segments p)

let squares p = length p /. p.width

let bbox p = Rect.expand (p.width /. 2.0) (Rect.bbox_of_points p.points)

let scale_width k p =
  if k <= 0.0 then invalid_arg "Path.scale_width: factor must be > 0";
  { p with width = k *. p.width }

let pp fmt p =
  Format.fprintf fmt "path(w=%g)[%a]" p.width
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " -> ") Point.pp)
    p.points
