module G = Sn_geometry

let rects ~center ~inner_width ~inner_height ~strip =
  if inner_width <= 0.0 || inner_height <= 0.0 || strip <= 0.0 then
    invalid_arg "Ring.rects: dimensions must be > 0";
  let cx = center.G.Point.x and cy = center.G.Point.y in
  let hw = inner_width /. 2.0 and hh = inner_height /. 2.0 in
  let ow = hw +. strip and oh = hh +. strip in
  [
    (* bottom and top strips span the full outer width *)
    G.Rect.make (cx -. ow) (cy -. oh) (cx +. ow) (cy -. hh);
    G.Rect.make (cx -. ow) (cy +. hh) (cx +. ow) (cy +. oh);
    (* left and right strips fill between them *)
    G.Rect.make (cx -. ow) (cy -. hh) (cx -. hw) (cy +. hh);
    G.Rect.make (cx +. hw) (cy -. hh) (cx +. ow) (cy +. hh);
  ]

let contacts ~net ~center ~inner ~strip =
  rects ~center ~inner_width:inner ~inner_height:inner ~strip
  |> List.map
       (Sn_layout.Shape.rect ~layer:Sn_layout.Layer.Substrate_contact ~net)
