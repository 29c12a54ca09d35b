type t = { x : float; y : float }

let v x y = { x; y }
let zero = { x = 0.0; y = 0.0 }
let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y }

let distance a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))


let equal ?(tol = 1e-9) a b =
  Float.abs (a.x -. b.x) <= tol && Float.abs (a.y -. b.y) <= tol

let pp fmt { x; y } = Format.fprintf fmt "(%g, %g)" x y
