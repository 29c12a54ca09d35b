module Mat = Sn_numerics.Mat
module Lu = Sn_numerics.Lu

type t = {
  ports : Port.t array;
  conductance : Mat.t;
  well_capacitance : (string * float) list;
}

let make ~ports ~conductance ~well_capacitance =
  let np = Array.length ports in
  if Mat.rows conductance <> np || Mat.cols conductance <> np then
    invalid_arg "Macromodel.make: conductance dimension mismatch";
  { ports; conductance; well_capacitance }

let port_count m = Array.length m.ports

let port_index m name =
  let found = ref None in
  Array.iteri
    (fun i (p : Port.t) -> if p.Port.name = name then found := Some i)
    m.ports;
  match !found with Some i -> i | None -> raise Not_found

let port_names m =
  Array.to_list (Array.map (fun (p : Port.t) -> p.Port.name) m.ports)

let to_resistors m =
  let np = port_count m in
  let acc = ref [] in
  for i = 0 to np - 1 do
    for j = i + 1 to np - 1 do
      let g = Mat.get m.conductance i j in
      if g < 0.0 then
        acc :=
          (m.ports.(i).Port.name, m.ports.(j).Port.name, -1.0 /. g) :: !acc
    done
  done;
  List.rev !acc

(* Impose voltages on constrained ports, zero current on the rest:
   split G v = i into free/fixed blocks and solve
   G_ff v_f = - G_fc v_c. *)
let solve m ~driven ~grounded =
  let np = port_count m in
  let fixed = Array.make np None in
  let constrain name v =
    let i = port_index m name in
    match fixed.(i) with
    | Some _ ->
      invalid_arg ("Macromodel.solve: port constrained twice: " ^ name)
    | None -> fixed.(i) <- Some v
  in
  List.iter (fun (name, v) -> constrain name v) driven;
  List.iter (fun name -> constrain name 0.0) grounded;
  let free_idx =
    Array.to_list (Array.mapi (fun i f -> (i, f)) fixed)
    |> List.filter_map (fun (i, f) -> if f = None then Some i else None)
    |> Array.of_list
  in
  let nf = Array.length free_idx in
  if nf = np then invalid_arg "Macromodel.solve: no port constrained";
  let v = Array.make np 0.0 in
  Array.iteri (fun i f -> match f with Some x -> v.(i) <- x | None -> ()) fixed;
  if nf > 0 then begin
    let a = Mat.init nf nf (fun r c ->
        Mat.get m.conductance free_idx.(r) free_idx.(c))
    in
    let b =
      Array.init nf (fun r ->
          let acc = ref 0.0 in
          for j = 0 to np - 1 do
            match fixed.(j) with
            | Some vj ->
              acc := !acc -. (Mat.get m.conductance free_idx.(r) j *. vj)
            | None -> ()
          done;
          !acc)
    in
    let x = Lu.solve_mat a b in
    Array.iteri (fun r i -> v.(i) <- x.(r)) free_idx
  end;
  Array.to_list (Array.mapi (fun i (p : Port.t) -> (p.Port.name, v.(i))) m.ports)

let divider m ~inject ~sense ~grounded =
  let voltages = solve m ~driven:[ (inject, 1.0) ] ~grounded in
  List.assoc sense voltages

let pp fmt m =
  Format.fprintf fmt "@[<v>substrate macromodel: %d ports@," (port_count m);
  Array.iter (fun p -> Format.fprintf fmt "  %a@," Port.pp p) m.ports;
  List.iter
    (fun (name, c) ->
      Format.fprintf fmt "  C(%s) = %s@," name
        (Sn_numerics.Units.eng ~unit:"F" c))
    m.well_capacitance;
  Format.fprintf fmt "@]"
