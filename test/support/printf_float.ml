(* The JSON float printing rule stated on the C printer: three calls
   into printf and one strtod per value. *)

let shortest_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
