module G = Sn_geometry
module L = Sn_layout
module T = Sn_tech.Tech

let log_src = Logs.Src.create "sn.interconnect" ~doc:"interconnect extraction"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = {
  include_resistance : bool;
  include_capacitance : bool;
  substrate_node : string;
  min_resistance : float;
}

let default_options =
  {
    include_resistance = true;
    include_capacitance = true;
    substrate_node = "sub_bulk";
    min_resistance = 1.0e-6;
  }

type report = {
  netlist : Rc_netlist.t;
  wires_extracted : int;
  wires_skipped : int;
  total_squares : float;
}

(* Area of one via cut plus surround, used to convert a via-array strip
   into a cut count. *)
let via_cut_area_um2 = 0.25

let segment_elements options tech ~layer ~net ~shape_id ~from_node ~to_node path =
  let metal_level =
    match L.Layer.metal_index layer with
    | Some k -> k
    | None -> invalid_arg "Extract: segment_elements on non-metal layer"
  in
  let metal =
    match T.metal tech metal_level with
    | m -> m
    | exception T.Unknown_metal { tech; index; available } ->
      invalid_arg
        (Printf.sprintf "Extract: %s has no metal level %d (available: %s)"
           tech index
           (String.concat ", " (List.map string_of_int available)))
  in
  let width_um = G.Path.width path in
  let cap_area = T.wire_capacitance_per_area tech metal_level in
  let cap_fringe = T.wire_fringe_per_length tech metal_level in
  let segs = G.Path.segments path in
  let n_segs = List.length segs in
  let node k =
    if k = 0 then from_node
    else if k = n_segs then to_node
    else Printf.sprintf "%s~%s~%d" net shape_id k
  in
  List.concat
    (List.mapi
       (fun k (a, b) ->
         let len_um = G.Point.distance a b in
         let squares = len_um /. width_um in
         let r =
           if options.include_resistance then
             Float.max options.min_resistance
               (metal.T.sheet_resistance *. squares)
           else options.min_resistance
         in
         let n1 = node k and n2 = node (k + 1) in
         let res =
           Rc_netlist.Res
             { name = Printf.sprintf "R%s.%d" shape_id k; n1; n2; ohms = r }
         in
         if options.include_capacitance then begin
           let len_m = len_um *. T.micron and width_m = width_um *. T.micron in
           let c = (cap_area *. len_m *. width_m) +. (cap_fringe *. len_m) in
           (* a wire end tied to the substrate node itself carries no
              ground capacitance: its half would short on that node *)
           let half n idx =
             if String.equal n options.substrate_node then []
             else
               [ Rc_netlist.Cap
                   {
                     name = Printf.sprintf "C%s.%d%s" shape_id k idx;
                     n1 = n;
                     n2 = options.substrate_node;
                     farads = c /. 2.0;
                   } ]
           in
           (res :: half n1 "a") @ half n2 "b"
         end
         else [ res ])
       segs)

let via_elements options tech ~level ~shape_id ~from_node ~to_node path =
  let via =
    match T.via tech level with
    | v -> v
    | exception T.Unknown_via { tech; level; available } ->
      invalid_arg
        (Printf.sprintf "Extract: %s has no via level %d (available: %s)"
           tech level
           (String.concat ", " (List.map string_of_int available)))
  in
  let area_um2 = G.Path.length path *. G.Path.width path in
  let cuts = Float.max 1.0 (Float.round (area_um2 /. via_cut_area_um2)) in
  let r =
    if options.include_resistance then
      Float.max options.min_resistance (via.T.resistance /. cuts)
    else options.min_resistance
  in
  [
    Rc_netlist.Res
      { name = Printf.sprintf "R%s.via" shape_id;
        n1 = from_node; n2 = to_node; ohms = r };
  ]

let extract ?(options = default_options) ~tech layout =
  let extracted = ref 0 and skipped = ref 0 and squares = ref 0.0 in
  let elements = ref [] in
  List.iteri
    (fun idx (s : L.Shape.t) ->
      match s.L.Shape.geometry with
      | L.Shape.Rect _ -> ()
      | L.Shape.Path { path; from_terminal; to_terminal } ->
        let shape_id = Printf.sprintf "%s.%d" s.L.Shape.net idx in
        (match (s.L.Shape.layer, from_terminal, to_terminal) with
         | L.Layer.Metal _, Some from_node, Some to_node ->
           incr extracted;
           squares := !squares +. G.Path.squares path;
           elements :=
             List.rev_append
               (segment_elements options tech ~layer:s.L.Shape.layer
                  ~net:s.L.Shape.net ~shape_id ~from_node ~to_node path)
               !elements
         | L.Layer.Via level, Some from_node, Some to_node ->
           incr extracted;
           elements :=
             List.rev_append
               (via_elements options tech ~level ~shape_id ~from_node
                  ~to_node path)
               !elements
         | (L.Layer.Metal _ | L.Layer.Via _), _, _ ->
           incr skipped;
           Log.debug (fun m ->
               m "skipping unterminated wire on net %s" s.L.Shape.net)
         | ( ( L.Layer.Substrate_contact | L.Layer.Nwell | L.Layer.Diffusion
             | L.Layer.Poly | L.Layer.Pad | L.Layer.Backgate_probe _ ),
             _, _ ) ->
           ()))
    (L.Layout.flatten layout);
  Log.info (fun m ->
      m "extracted %d wires (%d skipped), %.1f squares" !extracted !skipped
        !squares);
  {
    netlist = List.rev !elements;
    wires_extracted = !extracted;
    wires_skipped = !skipped;
    total_squares = !squares;
  }

let widen_net ~net ~factor layout =
  L.Layout.map_shapes
    (fun (s : L.Shape.t) ->
      if String.equal s.L.Shape.net net && L.Layer.is_metal s.L.Shape.layer
      then L.Shape.scale_path_width factor s
      else s)
    layout
