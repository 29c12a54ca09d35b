module C = Sn_circuit

type severity = Warning | Error

type subject =
  | Element of string
  | Node of string
  | Port of string
  | Deck

let subject_name = function
  | Element n | Node n | Port n -> n
  | Deck -> ""

(* the JSON discriminator *)
let subject_kind = function
  | Element _ -> "element"
  | Node _ -> "node"
  | Port _ -> "port"
  | Deck -> "deck"

type diagnostic = {
  severity : severity;
  code : string;
  subject : subject;
  message : string;
  loc : C.Netlist.source_loc option;
}

let diag ?loc severity code subject fmt =
  Printf.ksprintf
    (fun message -> { severity; code; subject; message; loc })
    fmt

let severity_rank = function Error -> 0 | Warning -> 1

let compare_diagnostic a b =
  let c = compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = String.compare (subject_name a.subject) (subject_name b.subject) in
      if c <> 0 then c else String.compare a.message b.message

type context = {
  netlist : C.Netlist.t;
  plan : Sn_engine.Stamp_plan.t Lazy.t;
}

let context netlist =
  {
    netlist;
    plan =
      lazy (Sn_engine.Stamp_plan.build (Sn_engine.Mna.build netlist));
  }

type t = {
  code : string;
  severity : severity;
  summary : string;
  check : context -> diagnostic list;
}

let pp_severity fmt s =
  Format.pp_print_string fmt
    (match s with Error -> "error" | Warning -> "warning")

let pp_diagnostic fmt (d : diagnostic) =
  Format.fprintf fmt "%a [%s]" pp_severity d.severity d.code;
  Option.iter
    (fun (l : C.Netlist.source_loc) ->
      Format.fprintf fmt " @@ %s:%d" l.C.Netlist.file l.C.Netlist.line)
    d.loc;
  Format.fprintf fmt ": %s" d.message

module J = Sn_json.Json

let diagnostic_to_json d =
  let file, line =
    match d.loc with
    | None -> (J.Null, J.Null)
    | Some l ->
      (J.Str l.C.Netlist.file, J.Num (float_of_int l.C.Netlist.line))
  in
  J.Obj
    [
      ( "severity",
        J.Str (match d.severity with Error -> "error" | Warning -> "warning") );
      ("code", J.Str d.code);
      ("subject_kind", J.Str (subject_kind d.subject));
      ("subject", J.Str (subject_name d.subject));
      ("message", J.Str d.message);
      ("file", file);
      ("line", line);
    ]

module Uf = struct
  type t = (string, string) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let rec find (t : t) n =
    match Hashtbl.find_opt t n with
    | None -> n
    | Some p ->
      let root = find t p in
      Hashtbl.replace t n root;
      root

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then Hashtbl.replace t ra rb

  let connected t a b = find t a = find t b
end
