let micron = 1.0e-6

type metal = {
  index : int;
  sheet_resistance : float;
  thickness : float;
  height : float;
  min_width : float;
}

type via = { level : int; resistance : float }

type substrate_layer = { depth : float; resistivity : float }

type substrate_profile = {
  layers : substrate_layer list;
  contact_resistance : float;
  nwell_cap_area : float;
  nwell_cap_perimeter : float;
}

type t = {
  name : string;
  metals : metal list;
  vias : via list;
  substrate : substrate_profile;
  oxide_permittivity : float;
  supply_voltage : float;
}

exception Unknown_metal of { tech : string; index : int; available : int list }
exception Unknown_via of { tech : string; level : int; available : int list }

let () =
  Printexc.register_printer (function
    | Unknown_metal { tech; index; available } ->
      Some
        (Printf.sprintf "Tech.Unknown_metal(%s has no metal %d; available: %s)"
           tech index
           (String.concat ", " (List.map string_of_int available)))
    | Unknown_via { tech; level; available } ->
      Some
        (Printf.sprintf "Tech.Unknown_via(%s has no via level %d; available: %s)"
           tech level
           (String.concat ", " (List.map string_of_int available)))
    | _ -> None)

let metal t k =
  match List.find_opt (fun m -> m.index = k) t.metals with
  | Some m -> m
  | None ->
    raise
      (Unknown_metal
         { tech = t.name; index = k;
           available = List.map (fun m -> m.index) t.metals |> List.sort compare })

let via t k =
  match List.find_opt (fun v -> v.level = k) t.vias with
  | Some v -> v
  | None ->
    raise
      (Unknown_via
         { tech = t.name; level = k;
           available = List.map (fun v -> v.level) t.vias |> List.sort compare })

let wire_capacitance_per_area t k =
  let m = metal t k in
  t.oxide_permittivity /. m.height

(* Empirical fringe term: eps * 2 pi / ln (1 + 2 h / t) per edge is a
   common closed form; we fold both edges into one per-length figure. *)
let wire_fringe_per_length t k =
  let m = metal t k in
  2.0 *. t.oxide_permittivity *. Sn_numerics.Units.two_pi
  /. log (1.0 +. (2.0 *. m.height /. m.thickness))

let validate t =
  let ( let* ) r f = Result.bind r f in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (t.metals <> []) "no metal layers" in
  let* () =
    check
      (List.for_all
         (fun m ->
           m.sheet_resistance > 0.0 && m.thickness > 0.0 && m.height > 0.0
           && m.min_width > 0.0)
         t.metals)
      "non-positive metal parameter"
  in
  let sorted = List.sort (fun a b -> compare a.index b.index) t.metals in
  let* () =
    check
      (List.mapi (fun i m -> m.index = i + 1) sorted |> List.for_all Fun.id)
      "metal indices must be contiguous from 1"
  in
  let* () = check (t.substrate.layers <> []) "empty substrate profile" in
  let* () =
    check
      (List.for_all
         (fun l -> l.depth > 0.0 && l.resistivity > 0.0)
         t.substrate.layers)
      "non-positive substrate layer parameter"
  in
  let* () =
    check (t.substrate.contact_resistance > 0.0) "non-positive contact resistance"
  in
  check (t.oxide_permittivity > 0.0) "non-positive oxide permittivity"

let eps0 = 8.854e-12
let eps_sio2 = 3.9 *. eps0

(* The paper's technology: 0.18 um 1P6M CMOS on a high-ohmic
   (20 ohm cm = 0.2 ohm m) lightly doped bulk.  Back-end heights and
   sheet resistances are standard 0.18 um generic values.  The surface
   layer captures the p+ channel-stop / diffusion region, an order of
   magnitude more conductive than the bulk. *)
let imec018 =
  {
    name = "imec-0.18um-1P6M-high-ohmic";
    metals =
      [
        { index = 1; sheet_resistance = 0.08; thickness = 0.35 *. micron;
          height = 1.0 *. micron; min_width = 0.23 *. micron };
        { index = 2; sheet_resistance = 0.08; thickness = 0.35 *. micron;
          height = 2.0 *. micron; min_width = 0.28 *. micron };
        { index = 3; sheet_resistance = 0.08; thickness = 0.35 *. micron;
          height = 3.0 *. micron; min_width = 0.28 *. micron };
        { index = 4; sheet_resistance = 0.08; thickness = 0.35 *. micron;
          height = 4.0 *. micron; min_width = 0.28 *. micron };
        { index = 5; sheet_resistance = 0.08; thickness = 0.35 *. micron;
          height = 5.0 *. micron; min_width = 0.28 *. micron };
        { index = 6; sheet_resistance = 0.025; thickness = 0.99 *. micron;
          height = 6.2 *. micron; min_width = 0.44 *. micron };
      ];
    vias =
      [
        { level = 0; resistance = 8.0 };
        { level = 1; resistance = 4.0 };
        { level = 2; resistance = 4.0 };
        { level = 3; resistance = 4.0 };
        { level = 4; resistance = 4.0 };
        { level = 5; resistance = 2.0 };
      ];
    substrate =
      {
        layers =
          [
            (* p+ surface region (channel stop, diffusions): a heavy
               2 kohm/sq sheet over the high-ohmic bulk *)
            { depth = 1.0 *. micron; resistivity = 0.002 };
            (* high-ohmic bulk: 20 ohm cm *)
            { depth = 50.0 *. micron; resistivity = 0.2 };
            { depth = 150.0 *. micron; resistivity = 0.2 };
            { depth = 300.0 *. micron; resistivity = 0.2 };
          ];
        contact_resistance = 1.0e-11 (* ohm m^2: ~10 ohm um^2 p+ tap *);
        nwell_cap_area = 1.0e-4 (* F/m^2: 0.1 fF/um^2 junction *);
        nwell_cap_perimeter = 1.0e-10 (* F/m: 0.1 fF/mm sidewall *);
      };
    oxide_permittivity = eps_sio2;
    supply_voltage = 1.8;
  }

(* Epitaxial variant: ~4 um of 10 ohm cm epi over a 0.01 ohm cm p+
   bulk.  The heavily doped bulk is a near-equipotential plane a few
   micrometers under every device. *)
let epi018 =
  {
    imec018 with
    name = "epi-0.18um-1P6M";
    substrate =
      {
        imec018.substrate with
        layers =
          [
            (* p- epi, lightly doped *)
            { depth = 1.0 *. micron; resistivity = 0.1 };
            { depth = 3.0 *. micron; resistivity = 0.1 };
            (* p+ bulk: 0.01 ohm cm *)
            { depth = 100.0 *. micron; resistivity = 1.0e-4 };
            { depth = 400.0 *. micron; resistivity = 1.0e-4 };
          ];
      };
  }
