type source_loc = { file : string; line : int }

type pragma = {
  ignore_code : string;
  ignore_subject : string option;
  ignore_loc : source_loc option;
}

type directive = { verb : string; args : (string * string) list }

type t = {
  title : string;
  elements : Element.t list;
  pragmas : pragma list;
  directives : directive list;
  locs : (string, source_loc) Hashtbl.t;
}

exception Invalid of string list

let create ?(title = "untitled") ?(pragmas = []) ?(directives = [])
    ?(locs = []) elements =
  let errors = ref [] in
  let err m = errors := m :: !errors in
  (* duplicate names *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let n = Element.name e in
      if Hashtbl.mem seen n then err ("duplicate element name: " ^ n)
      else Hashtbl.add seen n ())
    elements;
  (* per-element checks *)
  List.iter
    (fun e ->
      match Element.validate e with Ok () -> () | Error m -> err m)
    elements;
  (* ground reference *)
  if elements <> []
     && not
          (List.exists
             (fun e -> List.exists Element.is_ground (Element.nodes e))
             elements)
  then err "netlist has no ground reference (node 0 or gnd)";
  (match !errors with [] -> () | es -> raise (Invalid (List.rev es)));
  let loc_table = Hashtbl.create (List.length locs |> max 1) in
  List.iter (fun (name, loc) -> Hashtbl.replace loc_table name loc) locs;
  { title; elements; pragmas; directives; locs = loc_table }

let title nl = nl.title
let elements nl = nl.elements
let element_count nl = List.length nl.elements

let pragmas nl = nl.pragmas

let directives nl = nl.directives

let element_loc nl name = Hashtbl.find_opt nl.locs name

let element_locs nl =
  Hashtbl.fold (fun name loc acc -> (name, loc) :: acc) nl.locs []
  |> List.sort compare

let nodes nl =
  List.concat_map Element.nodes nl.elements
  |> List.filter (fun n -> not (Element.is_ground n))
  |> List.sort_uniq String.compare

let find nl name =
  match
    List.find_opt (fun e -> String.equal (Element.name e) name) nl.elements
  with
  | Some e -> e
  | None -> raise Not_found

let mem_node nl n =
  Element.is_ground n
  || List.exists (fun e -> List.mem n (Element.nodes e)) nl.elements

let map f nl =
  create ~title:nl.title ~pragmas:nl.pragmas ~directives:nl.directives
    ~locs:(element_locs nl)
    (List.map f nl.elements)
