module G = Sn_geometry

type geometry =
  | Rect of G.Rect.t
  | Path of {
      path : G.Path.t;
      from_terminal : string option;
      to_terminal : string option;
    }

type t = { layer : Layer.t; net : string; geometry : geometry }

let rect ~layer ~net r = { layer; net; geometry = Rect r }

let path ~layer ~net ?from_terminal ?to_terminal p =
  { layer; net; geometry = Path { path = p; from_terminal; to_terminal } }

let bbox s =
  match s.geometry with
  | Rect r -> r
  | Path { path; _ } -> G.Path.bbox path

let transform t s =
  match s.geometry with
  | Rect r -> { s with geometry = Rect (G.Transform.apply_rect t r) }
  | Path p ->
    { s with geometry = Path { p with path = G.Transform.apply_path t p.path } }

let scale_path_width k s =
  match s.geometry with
  | Rect _ -> s
  | Path p ->
    { s with geometry = Path { p with path = G.Path.scale_width k p.path } }
