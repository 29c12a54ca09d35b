exception Parse_error of int * string

(* ------------------------------------------------------------------ *)
(* numbers *)

let suffixes =
  [ ("meg", 1.0e6); ("f", 1.0e-15); ("p", 1.0e-12); ("n", 1.0e-9);
    ("u", 1.0e-6); ("m", 1.0e-3); ("k", 1.0e3); ("g", 1.0e9); ("t", 1.0e12) ]

let parse_number s =
  let s = String.lowercase_ascii (String.trim s) in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e'
  in
  (* split at the first character that cannot continue a float literal;
     'e' only counts as numeric when followed by a digit or sign *)
  let n = String.length s in
  let rec split i =
    if i >= n then i
    else if s.[i] = 'e' && i + 1 < n
            && (s.[i + 1] = '-' || s.[i + 1] = '+'
                || (s.[i + 1] >= '0' && s.[i + 1] <= '9'))
            && i > 0 then split (i + 1)
    else if s.[i] = 'e' then i
    else if is_num_char s.[i] then split (i + 1)
    else i
  in
  let cut = split 0 in
  let mantissa = String.sub s 0 cut in
  let tail = String.sub s cut (n - cut) in
  match float_of_string_opt mantissa with
  | None -> None
  | Some v ->
    if tail = "" then Some v
    else begin
      (* check 'meg' before 'm' *)
      let rec find = function
        | [] -> None
        | (suf, scale) :: rest ->
          if String.length tail >= String.length suf
             && String.sub tail 0 (String.length suf) = suf
          then Some scale
          else find rest
      in
      Option.map (fun scale -> v *. scale) (find suffixes)
    end

(* ------------------------------------------------------------------ *)
(* tokenizing with parenthesized stimulus groups *)

let fail ln msg = raise (Parse_error (ln, msg))

let number ln s =
  match parse_number s with
  | Some v -> v
  | None -> fail ln ("bad number: " ^ s)

(* Normalize "sin(0 1 2)" into "sin ( 0 1 2 )" then split. *)
let tokens_of_line line =
  let b = Buffer.create (String.length line + 8) in
  String.iter
    (fun c ->
      match c with
      | '(' | ')' ->
        Buffer.add_char b ' ';
        Buffer.add_char b c;
        Buffer.add_char b ' '
      | '=' ->
        Buffer.add_char b ' ';
        Buffer.add_char b '=';
        Buffer.add_char b ' '
      | c -> Buffer.add_char b c)
    line;
  String.split_on_char ' ' (Buffer.contents b)
  |> List.filter (fun t -> t <> "")

(* parse "key = value" groups from a token list *)
let rec parse_params ln acc = function
  | [] -> acc
  | key :: "=" :: v :: rest ->
    parse_params ln ((String.lowercase_ascii key, v) :: acc) rest
  | t :: _ -> fail ln ("expected key=value, got " ^ t)

(* stimulus tail of V/I cards *)
let rec parse_stimulus ln (wave, ac_mag) = function
  | [] -> (wave, ac_mag)
  | "dc" :: v :: rest ->
    parse_stimulus ln (Waveform.Dc (number ln v), ac_mag) rest
  | "ac" :: v :: rest -> parse_stimulus ln (wave, number ln v) rest
  | "sin" :: "(" :: rest ->
    let args, rest = split_group ln [] rest in
    let wave =
      match List.map (number ln) args with
      | [ off; ampl; freq ] ->
        Waveform.Sin { offset = off; amplitude = ampl; freq; phase = 0.0 }
      | [ off; ampl; freq; phase ] ->
        Waveform.Sin { offset = off; amplitude = ampl; freq; phase }
      | _ -> fail ln "SIN needs 3 or 4 arguments"
    in
    parse_stimulus ln (wave, ac_mag) rest
  | "pulse" :: "(" :: rest ->
    let args, rest = split_group ln [] rest in
    let wave =
      match List.map (number ln) args with
      | [ v1; v2; delay; rise; fall; width; period ] ->
        Waveform.Pulse { v1; v2; delay; rise; fall; width; period }
      | _ -> fail ln "PULSE needs 7 arguments"
    in
    parse_stimulus ln (wave, ac_mag) rest
  | "pwl" :: "(" :: rest ->
    let args, rest = split_group ln [] rest in
    let values = List.map (number ln) args in
    let rec pair = function
      | [] -> []
      | t :: v :: more -> (t, v) :: pair more
      | [ _ ] -> fail ln "PWL needs an even argument count"
    in
    parse_stimulus ln (Waveform.pwl (pair values), ac_mag) rest
  | v :: rest when parse_number v <> None ->
    (* bare value means DC *)
    parse_stimulus ln (Waveform.Dc (number ln v), ac_mag) rest
  | t :: _ -> fail ln ("unexpected stimulus token: " ^ t)

and split_group ln acc = function
  | ")" :: rest -> (List.rev acc, rest)
  | [] -> fail ln "unterminated ("
  | t :: rest -> split_group ln (t :: acc) rest

(* ------------------------------------------------------------------ *)
(* model cards *)

type models = {
  mutable mos : (string * Mos_model.t) list;
  mutable var : (string * Varactor_model.t) list;
}

let lookup_param params key default =
  match List.assoc_opt key params with Some v -> v | None -> default

let parse_model ln models = function
  | name :: kind :: rest ->
    let name = String.lowercase_ascii name in
    let params = parse_params ln [] rest in
    let num key default =
      match List.assoc_opt key params with
      | Some v -> number ln v
      | None -> default
    in
    (match String.lowercase_ascii kind with
     | "nmos" | "pmos" ->
       let base =
         if String.lowercase_ascii kind = "nmos" then Mos_model.default_nmos
         else Mos_model.default_pmos
       in
       let model =
         {
           base with
           Mos_model.name;
           vt0 = num "vt0" base.Mos_model.vt0;
           kp = num "kp" base.Mos_model.kp;
           gamma = num "gamma" base.Mos_model.gamma;
           phi = num "phi" base.Mos_model.phi;
           lambda = num "lambda" base.Mos_model.lambda;
           cdb = num "cdb" base.Mos_model.cdb;
           csb = num "csb" base.Mos_model.csb;
           cgs = num "cgs" base.Mos_model.cgs;
           cgd = num "cgd" base.Mos_model.cgd;
         }
       in
       models.mos <- (name, model) :: models.mos
     | "varactor" ->
       let base = Varactor_model.default in
       let model =
         {
           Varactor_model.name;
           cmin = num "cmin" base.Varactor_model.cmin;
           cmax = num "cmax" base.Varactor_model.cmax;
           v0 = num "v0" base.Varactor_model.v0;
           vslope = num "vslope" base.Varactor_model.vslope;
         }
       in
       models.var <- (name, model) :: models.var
     | k -> fail ln ("unknown model kind: " ^ k))
  | _ -> fail ln ".model needs a name and a kind"

(* ------------------------------------------------------------------ *)
(* cards *)

let parse_card ln models tokens =
  match tokens with
  | [] -> None
  | name :: rest ->
    let lname = String.lowercase_ascii name in
    let kind = Char.lowercase_ascii name.[0] in
    (match kind, rest with
     | 'r', [ n1; n2; v ] ->
       Some (Element.Resistor { name = lname; n1; n2; ohms = number ln v })
     | 'c', [ n1; n2; v ] ->
       Some (Element.Capacitor { name = lname; n1; n2; farads = number ln v })
     | 'l', [ n1; n2; v ] ->
       Some (Element.Inductor { name = lname; n1; n2; henries = number ln v })
     | 'v', np :: nn :: stim ->
       let wave, ac_mag =
         parse_stimulus ln (Waveform.Dc 0.0, 0.0)
           (List.map String.lowercase_ascii stim)
       in
       Some (Element.Vsource { name = lname; np; nn; wave; ac_mag })
     | 'i', np :: nn :: stim ->
       let wave, ac_mag =
         parse_stimulus ln (Waveform.Dc 0.0, 0.0)
           (List.map String.lowercase_ascii stim)
       in
       Some (Element.Isource { name = lname; np; nn; wave; ac_mag })
     | 'g', [ np; nn; cp; cn; v ] ->
       Some (Element.Vccs { name = lname; np; nn; cp; cn; gm = number ln v })
     | 'e', [ np; nn; cp; cn; v ] ->
       Some (Element.Vcvs { name = lname; np; nn; cp; cn; gain = number ln v })
     | 'm', drain :: gate :: source :: bulk :: model :: params ->
       let params = parse_params ln [] params in
       let model_name = String.lowercase_ascii model in
       let model =
         match List.assoc_opt model_name models.mos with
         | Some m -> m
         | None -> fail ln ("unknown MOS model: " ^ model_name)
       in
       let w = number ln (lookup_param params "w" "10u") in
       let l = number ln (lookup_param params "l" "0.18u") in
       let mult = int_of_float (number ln (lookup_param params "m" "1")) in
       Some (Element.Mosfet { name = lname; drain; gate; source; bulk; model; w; l; mult })
     | 'y', n1 :: n2 :: model :: params ->
       let params = parse_params ln [] params in
       let model_name = String.lowercase_ascii model in
       let model =
         match List.assoc_opt model_name models.var with
         | Some m -> m
         | None -> fail ln ("unknown varactor model: " ^ model_name)
       in
       let mult = int_of_float (number ln (lookup_param params "m" "1")) in
       Some (Element.Varactor { name = lname; n1; n2; model; mult })
     | _ -> fail ln ("unrecognized card: " ^ String.concat " " tokens))

(* join '+' continuation lines *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let rec join acc = function
    | [] -> List.rev acc
    | (ln, line) :: rest ->
      let line = String.trim line in
      if String.length line > 0 && line.[0] = '+' then
        match acc with
        | (ln0, prev) :: acc' ->
          join ((ln0, prev ^ " " ^ String.sub line 1 (String.length line - 1)) :: acc') rest
        | [] -> fail ln "continuation line with nothing to continue"
      else join ((ln, line) :: acc) rest
  in
  join [] (List.mapi (fun i l -> (i + 1, l)) raw)

(* A [%snoise] marker line (leading [*] optional, spaces after the [*]
   allowed).  Three verbs exist: the lint-suppression pragma
   [*%snoise ignore <code>[,<code>...] [<subject>]] (a comma-separated
   code list shares the one optional subject) and the tool directives
   [*%snoise extract <key>=<value> ...] and
   [*%snoise reduce <key>=<value> ...] (e.g. [keep=n1,n2] naming
   observation nodes the model-order reduction must leave explicit).
   Returns [None] for lines that are no marker at all; raises on a
   [%snoise] line with an unknown verb so typos do not silently
   disable nothing. *)
let pragma_of_line ~file ln line =
  let body =
    let s = String.trim line in
    if String.length s > 0 && s.[0] = '*' then
      String.trim (String.sub s 1 (String.length s - 1))
    else s
  in
  if not (String.length body >= 7 && String.sub body 0 7 = "%snoise") then None
  else
    match
      String.split_on_char ' ' body |> List.filter (fun t -> t <> "")
    with
    | _ :: "ignore" :: code :: rest ->
      let subject =
        match rest with
        | [] -> None
        | [ s ] -> Some s
        | _ -> fail ln "%snoise ignore takes a code and at most one subject"
      in
      let codes =
        String.split_on_char ',' code |> List.filter (fun c -> c <> "")
      in
      if codes = [] then fail ln "%snoise ignore: empty code list";
      Some
        (`Pragmas
          (List.map
             (fun c ->
               { Netlist.ignore_code = String.lowercase_ascii c;
                 ignore_subject = subject;
                 ignore_loc = Some { Netlist.file; line = ln } })
             codes))
    | _ :: (("extract" | "reduce") as verb) :: rest ->
      let args =
        List.map
          (fun tok ->
            match String.index_opt tok '=' with
            | Some i when i > 0 && i < String.length tok - 1 ->
              ( String.lowercase_ascii (String.sub tok 0 i),
                String.sub tok (i + 1) (String.length tok - i - 1) )
            | _ ->
              fail ln
                (Printf.sprintf
                   "%%snoise %s takes key=value arguments, got: %s" verb tok))
          rest
      in
      Some (`Directive { Netlist.verb; args })
    | _ ->
      fail ln
        "unknown %snoise marker (expected: ignore <code> [<subject>] | \
         extract <key>=<value> ... | reduce <key>=<value> ...)"

let of_string ?(file = "<string>") text =
  let models = { mos = []; var = [] } in
  let title = ref "spice netlist" in
  let cards = ref [] in
  let locs = ref [] in
  let pragmas = ref [] in
  let directives = ref [] in
  (* first pass: models, title, pragmas and directives *)
  List.iter
    (fun (ln, line) ->
      match pragma_of_line ~file ln line with
      | Some (`Pragmas ps) -> pragmas := List.rev_append ps !pragmas
      | Some (`Directive d) -> directives := d :: !directives
      | None ->
        if line = "" || line.[0] = '*' then ()
        else begin
          let tokens = tokens_of_line line in
          match tokens with
          | dot :: rest when String.length dot > 0 && dot.[0] = '.' ->
            (match String.lowercase_ascii dot with
             | ".model" -> parse_model ln models rest
             | ".title" -> title := String.concat " " rest
             | ".end" -> ()
             | d -> fail ln ("unknown directive: " ^ d))
          | _ -> ()
        end)
    (logical_lines text);
  (* second pass: element cards *)
  List.iter
    (fun (ln, line) ->
      if line = "" || line.[0] = '*' || line.[0] = '.' || line.[0] = '%'
      then ()
      else
        match parse_card ln models (tokens_of_line line) with
        | Some e ->
          cards := e :: !cards;
          locs := (Element.name e, { Netlist.file; line = ln }) :: !locs
        | None -> ())
    (logical_lines text);
  Netlist.create ~title:!title ~pragmas:(List.rev !pragmas)
    ~directives:(List.rev !directives) ~locs:!locs (List.rev !cards)

(* ------------------------------------------------------------------ *)
(* printing *)

(* values print by the JSON float rule (a bare integer, or 15 or 17
   significant digits), which reads back bit-identical *)
let num = Sn_json.Json.shortest_float

(* the reader takes a card's type from its first letter, so a name
   that does not start with it gets it prefixed (itc_R1 -> ritc_R1) *)
let card kind name fields =
  let name =
    if name <> "" && Char.lowercase_ascii name.[0] = kind then name
    else String.make 1 kind ^ name
  in
  String.concat " " (name :: fields)

let mos_card (m : Mos_model.t) =
  Printf.sprintf
    ".model %s %s vt0=%s kp=%s gamma=%s phi=%s lambda=%s cdb=%s csb=%s \
     cgs=%s cgd=%s"
    m.Mos_model.name
    (match m.Mos_model.polarity with
     | Mos_model.Nmos -> "nmos"
     | Mos_model.Pmos -> "pmos")
    (num m.Mos_model.vt0) (num m.Mos_model.kp) (num m.Mos_model.gamma)
    (num m.Mos_model.phi) (num m.Mos_model.lambda) (num m.Mos_model.cdb)
    (num m.Mos_model.csb) (num m.Mos_model.cgs) (num m.Mos_model.cgd)

let var_card (m : Varactor_model.t) =
  Printf.sprintf ".model %s varactor cmin=%s cmax=%s v0=%s vslope=%s"
    m.Varactor_model.name (num m.Varactor_model.cmin)
    (num m.Varactor_model.cmax) (num m.Varactor_model.v0)
    (num m.Varactor_model.vslope)

let wave_text = function
  | Waveform.Dc v -> "DC " ^ num v
  | Waveform.Sin { offset; amplitude; freq; phase } ->
    Printf.sprintf "SIN(%s)"
      (String.concat " " (List.map num [ offset; amplitude; freq; phase ]))
  | Waveform.Pulse { v1; v2; delay; rise; fall; width; period } ->
    Printf.sprintf "PULSE(%s)"
      (String.concat " "
         (List.map num [ v1; v2; delay; rise; fall; width; period ]))
  | Waveform.Pwl points ->
    Printf.sprintf "PWL(%s)"
      (String.concat " "
         (List.map (fun (t, v) -> num t ^ " " ^ num v) points))

let to_string nl =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf ".title %s\n" (Netlist.title nl));
  List.iter
    (fun (p : Netlist.pragma) ->
      Buffer.add_string b
        (match p.Netlist.ignore_subject with
         | None -> Printf.sprintf "*%%snoise ignore %s\n" p.Netlist.ignore_code
         | Some s ->
           Printf.sprintf "*%%snoise ignore %s %s\n" p.Netlist.ignore_code s))
    (Netlist.pragmas nl);
  List.iter
    (fun (d : Netlist.directive) ->
      Buffer.add_string b
        (Printf.sprintf "*%%snoise %s%s\n" d.Netlist.verb
           (String.concat ""
              (List.map
                 (fun (k, v) -> Printf.sprintf " %s=%s" k v)
                 d.Netlist.args))))
    (Netlist.directives nl);
  (* model cards, deduplicated by name *)
  let mos = Hashtbl.create 8 and var = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e with
      | Element.Mosfet { model; _ } ->
        Hashtbl.replace mos model.Mos_model.name model
      | Element.Varactor { model; _ } ->
        Hashtbl.replace var model.Varactor_model.name model
      | Element.Resistor _ | Element.Capacitor _ | Element.Inductor _
      | Element.Vsource _ | Element.Isource _ | Element.Vccs _
      | Element.Vcvs _ ->
        ())
    (Netlist.elements nl);
  Hashtbl.iter (fun _ m -> Buffer.add_string b (mos_card m ^ "\n")) mos;
  Hashtbl.iter (fun _ m -> Buffer.add_string b (var_card m ^ "\n")) var;
  List.iter
    (fun e ->
      let line =
        match e with
        | Element.Resistor { name; n1; n2; ohms } ->
          card 'r' name [ n1; n2; num ohms ]
        | Element.Capacitor { name; n1; n2; farads } ->
          card 'c' name [ n1; n2; num farads ]
        | Element.Inductor { name; n1; n2; henries } ->
          card 'l' name [ n1; n2; num henries ]
        | Element.Vsource { name; np; nn; wave; ac_mag } ->
          card 'v' name [ np; nn; wave_text wave; "AC"; num ac_mag ]
        | Element.Isource { name; np; nn; wave; ac_mag } ->
          card 'i' name [ np; nn; wave_text wave; "AC"; num ac_mag ]
        | Element.Vccs { name; np; nn; cp; cn; gm } ->
          card 'g' name [ np; nn; cp; cn; num gm ]
        | Element.Vcvs { name; np; nn; cp; cn; gain } ->
          card 'e' name [ np; nn; cp; cn; num gain ]
        | Element.Mosfet { name; drain; gate; source; bulk; model; w; l; mult } ->
          card 'm' name
            [ drain; gate; source; bulk; model.Mos_model.name; "W=" ^ num w;
              "L=" ^ num l; Printf.sprintf "M=%d" mult ]
        | Element.Varactor { name; n1; n2; model; mult } ->
          card 'y' name
            [ n1; n2; model.Varactor_model.name; Printf.sprintf "M=%d" mult ]
      in
      Buffer.add_string b (line ^ "\n"))
    (Netlist.elements nl);
  Buffer.add_string b ".end\n";
  Buffer.contents b

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string ~file:path (In_channel.input_all ic))
