module G = Sn_geometry

exception Parse_error of int * string

let buf_add = Buffer.add_string

let terminal_str = function None -> "-" | Some s -> s

let shape_line buf (s : Shape.t) =
  match s.Shape.geometry with
  | Shape.Rect r ->
    buf_add buf
      (Printf.sprintf "  rect %s %s %g %g %g %g\n" (Layer.name s.Shape.layer)
         s.Shape.net r.G.Rect.x0 r.G.Rect.y0 r.G.Rect.x1 r.G.Rect.y1)
  | Shape.Path { path; from_terminal; to_terminal } ->
    let pts =
      G.Path.points path
      |> List.map (fun { G.Point.x; y } -> Printf.sprintf "%g %g" x y)
      |> String.concat " "
    in
    buf_add buf
      (Printf.sprintf "  path %s %s %g %s %s %s\n" (Layer.name s.Shape.layer)
         s.Shape.net (G.Path.width path) (terminal_str from_terminal)
         (terminal_str to_terminal) pts)

let to_string layout =
  let buf = Buffer.create 4096 in
  buf_add buf (Printf.sprintf "layout top=%s\n" (Layout.top_name layout));
  List.iter
    (fun (c : Cell.t) ->
      buf_add buf (Printf.sprintf "cell %s\n" c.Cell.name);
      List.iter (shape_line buf) c.Cell.shapes;
      List.iter
        (fun { Cell.cell_name; transform } ->
          buf_add buf
            (Printf.sprintf "  inst %s %s %g %g\n" cell_name
               (G.Transform.orientation_name transform.G.Transform.orientation)
               transform.G.Transform.offset.G.Point.x
               transform.G.Transform.offset.G.Point.y))
        c.Cell.instances;
      buf_add buf "end\n")
    (Layout.cells layout);
  Buffer.contents buf

let fail line msg = raise (Parse_error (line, msg))

let float_of ln s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail ln ("bad number: " ^ s)

let layer_of ln s =
  match Layer.of_name s with
  | Some l -> l
  | None -> fail ln ("unknown layer: " ^ s)

let terminal_of = function "-" -> None | s -> Some s

let rec parse_points ln = function
  | [] -> []
  | [ _ ] -> fail ln "odd number of path coordinates"
  | x :: y :: rest -> G.Point.v (float_of ln x) (float_of ln y) :: parse_points ln rest

let of_string text =
  let lines = String.split_on_char '\n' text in
  let top = ref None in
  let cells = ref [] in
  let current = ref None in
  let finish_cell () =
    match !current with
    | Some c -> cells := c :: !cells; current := None
    | None -> ()
  in
  List.iteri
    (fun i raw ->
      let ln = i + 1 in
      let line = String.trim raw in
      if line = "" || String.length line > 0 && line.[0] = '#' then ()
      else begin
        let tokens =
          String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
        in
        match tokens with
        | [ "layout"; spec ] ->
          (match String.split_on_char '=' spec with
           | [ "top"; name ] -> top := Some name
           | _ -> fail ln "expected layout top=<name>")
        | [ "cell"; name ] ->
          finish_cell ();
          current := Some (Cell.make ~name [])
        | [ "end" ] -> finish_cell ()
        | "rect" :: layer :: net :: [ x0; y0; x1; y1 ] ->
          (match !current with
           | None -> fail ln "rect outside cell"
           | Some c ->
             let r =
               G.Rect.make (float_of ln x0) (float_of ln y0) (float_of ln x1)
                 (float_of ln y1)
             in
             current := Some (Cell.add_shape (Shape.rect ~layer:(layer_of ln layer) ~net r) c))
        | "path" :: layer :: net :: width :: from_t :: to_t :: coords ->
          (match !current with
           | None -> fail ln "path outside cell"
           | Some c ->
             let pts = parse_points ln coords in
             if List.length pts < 2 then fail ln "path needs at least 2 points";
             let p = G.Path.make ~width:(float_of ln width) pts in
             let shape =
               Shape.path ~layer:(layer_of ln layer) ~net
                 ?from_terminal:(terminal_of from_t) ?to_terminal:(terminal_of to_t) p
             in
             current := Some (Cell.add_shape shape c))
        | [ "inst"; name; orient; dx; dy ] ->
          (match !current with
           | None -> fail ln "inst outside cell"
           | Some c ->
             let orientation =
               match G.Transform.orientation_of_name orient with
               | Some o -> o
               | None -> fail ln ("unknown orientation: " ^ orient)
             in
             let transform =
               G.Transform.make orientation
                 (G.Point.v (float_of ln dx) (float_of ln dy))
             in
             current :=
               Some (Cell.add_instance { Cell.cell_name = name; transform } c))
        | _ -> fail ln ("unrecognized record: " ^ line)
      end)
    lines;
  finish_cell ();
  match !top with
  | None -> fail 0 "missing layout top=<name> header"
  | Some top ->
    (* cell shape/instance lists were built by consing; restore file order *)
    let cells =
      List.rev_map
        (fun (c : Cell.t) ->
          { c with
            Cell.shapes = List.rev c.Cell.shapes;
            Cell.instances = List.rev c.Cell.instances })
        !cells
    in
    Layout.create ~top cells

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
