type t = { x : float; y : float }

let v x y = { x; y }
let zero = { x = 0.0; y = 0.0 }
let add a b = { x = a.x +. b.x; y = a.y +. b.y }

let distance a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))


let equal a b =
  Float.abs (a.x -. b.x) <= 1e-9 && Float.abs (a.y -. b.y) <= 1e-9
