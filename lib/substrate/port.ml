module G = Sn_geometry
module L = Sn_layout

type kind = Resistive | Well | Probe

type t = { name : string; kind : kind; region : G.Rect.t list }

let v ~name ~kind region =
  if region = [] then invalid_arg "Port.v: empty region";
  { name; kind; region }

let shape_rect (s : L.Shape.t) =
  match s.L.Shape.geometry with
  | L.Shape.Rect r -> r
  | L.Shape.Path _ -> L.Shape.bbox s

module StringMap = Map.Make (String)

let of_layout layout =
  let add key kind rect acc =
    StringMap.update key
      (function
        | None -> Some (kind, [ rect ])
        | Some (k, rects) -> Some (k, rect :: rects))
      acc
  in
  let table =
    List.fold_left
      (fun acc (s : L.Shape.t) ->
        match s.L.Shape.layer with
        | L.Layer.Substrate_contact ->
          add s.L.Shape.net Resistive (shape_rect s) acc
        | L.Layer.Nwell -> add ("nwell:" ^ s.L.Shape.net) Well (shape_rect s) acc
        | L.Layer.Backgate_probe d ->
          add ("backgate:" ^ d) Probe (shape_rect s) acc
        | L.Layer.Diffusion | L.Layer.Poly | L.Layer.Metal _ | L.Layer.Via _
        | L.Layer.Pad ->
          acc)
      StringMap.empty
      (L.Layout.flatten layout)
  in
  StringMap.bindings table
  |> List.map (fun (name, (kind, region)) -> { name; kind; region })

let area p =
  List.fold_left (fun acc r -> acc +. G.Rect.area r) 0.0 p.region

let kind_name = function
  | Resistive -> "resistive"
  | Well -> "well"
  | Probe -> "probe"

let pp fmt p =
  Format.fprintf fmt "port %s (%s, %d rects, %.1f um^2)" p.name
    (kind_name p.kind) (List.length p.region) (area p)
