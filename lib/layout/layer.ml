type t =
  | Substrate_contact
  | Nwell
  | Diffusion
  | Poly
  | Metal of int
  | Via of int
  | Pad
  | Backgate_probe of string

let equal a b = a = b

let is_metal = function Metal _ -> true
  | Substrate_contact | Nwell | Diffusion | Poly | Via _ | Pad
  | Backgate_probe _ -> false

let metal_index = function Metal k -> Some k
  | Substrate_contact | Nwell | Diffusion | Poly | Via _ | Pad
  | Backgate_probe _ -> None

let name = function
  | Substrate_contact -> "subcontact"
  | Nwell -> "nwell"
  | Diffusion -> "diffusion"
  | Poly -> "poly"
  | Metal k -> Printf.sprintf "metal%d" k
  | Via k -> Printf.sprintf "via%d" k
  | Pad -> "pad"
  | Backgate_probe d -> Printf.sprintf "backgate:%s" d

let of_name s =
  match s with
  | "subcontact" -> Some Substrate_contact
  | "nwell" -> Some Nwell
  | "diffusion" -> Some Diffusion
  | "poly" -> Some Poly
  | "pad" -> Some Pad
  | _ ->
    let prefix p = String.length s > String.length p
                   && String.sub s 0 (String.length p) = p in
    let suffix p = String.sub s (String.length p)
                     (String.length s - String.length p) in
    if prefix "metal" then int_of_string_opt (suffix "metal")
                           |> Option.map (fun k -> Metal k)
    else if prefix "via" then int_of_string_opt (suffix "via")
                              |> Option.map (fun k -> Via k)
    else if prefix "backgate:" then Some (Backgate_probe (suffix "backgate:"))
    else None

let pp fmt t = Format.pp_print_string fmt (name t)
