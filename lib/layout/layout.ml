module G = Sn_geometry
module StringMap = Map.Make (String)

type t = { top : string; table : Cell.t StringMap.t }

exception Unknown_cell of string
exception Recursive_hierarchy of string

let find_table table name =
  match StringMap.find_opt name table with
  | Some c -> c
  | None -> raise (Unknown_cell name)

let check_acyclic table top =
  let rec visit trail name =
    if List.mem name trail then raise (Recursive_hierarchy name);
    let cell = find_table table name in
    List.iter
      (fun { Cell.cell_name; _ } -> visit (name :: trail) cell_name)
      cell.Cell.instances
  in
  visit [] top

let create ~top cells =
  let table =
    List.fold_left
      (fun acc (c : Cell.t) ->
        if StringMap.mem c.Cell.name acc then
          invalid_arg ("Layout.create: duplicate cell " ^ c.Cell.name)
        else StringMap.add c.Cell.name c acc)
      StringMap.empty cells
  in
  check_acyclic table top;
  { top; table }

let top_name l = l.top
let cells l = List.map snd (StringMap.bindings l.table)
let flatten l =
  let rec expand transform name acc =
    let cell = find_table l.table name in
    let acc =
      List.fold_left
        (fun acc s -> Shape.transform transform s :: acc)
        acc cell.Cell.shapes
    in
    List.fold_left
      (fun acc { Cell.cell_name; transform = inner } ->
        expand (G.Transform.compose transform inner) cell_name acc)
      acc cell.Cell.instances
  in
  List.rev (expand G.Transform.identity l.top [])

let nets l =
  flatten l
  |> List.map (fun (s : Shape.t) -> s.Shape.net)
  |> List.sort_uniq String.compare

let bbox l =
  match flatten l with
  | [] -> invalid_arg "Layout.bbox: empty layout"
  | s :: rest ->
    List.fold_left
      (fun acc sh -> G.Rect.union_bbox acc (Shape.bbox sh))
      (Shape.bbox s) rest

let map_shapes f l =
  let table =
    StringMap.map
      (fun (c : Cell.t) -> { c with Cell.shapes = List.map f c.Cell.shapes })
      l.table
  in
  { l with table }
