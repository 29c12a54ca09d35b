module N = Sn_numerics

type element =
  | Res of { name : string; n1 : string; n2 : string; ohms : float }
  | Cap of { name : string; n1 : string; n2 : string; farads : float }

type t = element list

let resistors nl =
  List.filter_map
    (function Res { n1; n2; ohms; _ } -> Some (n1, n2, ohms) | Cap _ -> None)
    nl

let capacitors nl =
  List.filter_map
    (function Cap { n1; n2; farads; _ } -> Some (n1, n2, farads) | Res _ -> None)
    nl

let nodes nl =
  List.concat_map
    (function Res { n1; n2; _ } | Cap { n1; n2; _ } -> [ n1; n2 ])
    nl
  |> List.sort_uniq String.compare

(* Restrict to the connected component containing [seed] so that
   unrelated nets elsewhere in the netlist cannot make the nodal
   matrix singular. *)
let component_of rs seed =
  let adj = Hashtbl.create 64 in
  let link a b =
    let cur = Option.value ~default:[] (Hashtbl.find_opt adj a) in
    Hashtbl.replace adj a (b :: cur)
  in
  List.iter
    (fun (n1, n2, _) ->
      link n1 n2;
      link n2 n1)
    rs;
  let visited = Hashtbl.create 64 in
  let rec visit n =
    if not (Hashtbl.mem visited n) then begin
      Hashtbl.replace visited n ();
      List.iter visit (Option.value ~default:[] (Hashtbl.find_opt adj n))
    end
  in
  visit seed;
  visited

(* Two-terminal resistance by nodal analysis: inject 1 A at [a], sink
   1 A at [b], pin node [b] to 0 V; R = v_a. *)
let resistance_between nl a b =
  let all_rs = resistors nl in
  let all_nodes =
    List.concat_map (fun (n1, n2, _) -> [ n1; n2 ]) all_rs
    |> List.sort_uniq String.compare
  in
  if not (List.mem a all_nodes) || not (List.mem b all_nodes) then
    raise Not_found;
  let comp = component_of all_rs a in
  if not (Hashtbl.mem comp b) then
    failwith "Rc_netlist.resistance_between: nodes not connected";
  let rs =
    List.filter (fun (n1, _, _) -> Hashtbl.mem comp n1) all_rs
  in
  let node_names =
    List.concat_map (fun (n1, n2, _) -> [ n1; n2 ]) rs
    |> List.sort_uniq String.compare
  in
  let index name =
    match List.find_index (String.equal name) node_names with
    | Some i -> i
    | None -> raise Not_found
  in
  let ia = index a and ib = index b in
  let n = List.length node_names in
  let g = N.Mat.make n n in
  List.iter
    (fun (n1, n2, r) ->
      let i = index n1 and j = index n2 in
      let gv = 1.0 /. r in
      N.Mat.add_to g i i gv;
      N.Mat.add_to g j j gv;
      N.Mat.add_to g i j (-.gv);
      N.Mat.add_to g j i (-.gv))
    rs;
  (* ground node b: replace its row/column with identity *)
  for k = 0 to n - 1 do
    N.Mat.set g ib k 0.0;
    N.Mat.set g k ib 0.0
  done;
  N.Mat.set g ib ib 1.0;
  let rhs = Array.make n 0.0 in
  rhs.(ia) <- 1.0;
  match N.Lu.solve_mat g rhs with
  | x ->
    let v = x.(ia) in
    if Float.is_nan v || Float.abs v = Float.infinity then
      failwith "Rc_netlist.resistance_between: nodes not connected"
    else v
  | exception N.Lu.Singular _ ->
    failwith "Rc_netlist.resistance_between: nodes not connected"

let pp fmt nl =
  Format.fprintf fmt "@[<v>";
  List.iter
    (function
      | Res { name; n1; n2; ohms } ->
        Format.fprintf fmt "R %s %s %s %s@," name n1 n2
          (N.Units.eng ~unit:"Ohm" ohms)
      | Cap { name; n1; n2; farads } ->
        Format.fprintf fmt "C %s %s %s %s@," name n1 n2
          (N.Units.eng ~unit:"F" farads))
    nl;
  Format.fprintf fmt "@]"
