type verb =
  | Op
  | Ac
  | Tran
  | Noise
  | Spur
  | Lint
  | Verify
  | Extract
  | Stats
  | Ping
  | Health
  | Shutdown

(* each verb once, with its wire name *)
let verbs =
  [ ("op", Op); ("ac", Ac); ("tran", Tran); ("noise", Noise); ("spur", Spur);
    ("lint", Lint); ("verify", Verify); ("extract", Extract);
    ("stats", Stats); ("ping", Ping); ("health", Health);
    ("shutdown", Shutdown) ]

let verb_name verb = fst (List.find (fun (_, v) -> v = verb) verbs)

let verb_of_string name = List.assoc_opt name verbs

type source = Inline of string | Path of string

type request = {
  id : Json.t;
  verb : verb;
  source : source option;
  overrides : (string * float) list;
  deadline_ms : float option;
  params : Json.t;
}

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_verb
  | Deck_unreadable
  | Lint_refused
  | Engine_diag
  | Busy
  | Quota_exceeded
  | Deadline_exceeded
  | Unauthorized
  | Internal

let error_code_name = function
  | Parse_error -> "parse-error"
  | Bad_request -> "bad-request"
  | Unknown_verb -> "unknown-verb"
  | Deck_unreadable -> "deck-unreadable"
  | Lint_refused -> "lint-refused"
  | Engine_diag -> "engine-diag"
  | Busy -> "busy"
  | Quota_exceeded -> "quota-exceeded"
  | Deadline_exceeded -> "deadline-exceeded"
  | Unauthorized -> "unauthorized"
  | Internal -> "internal"

(* ------------------------------------------------------------------ *)
(* reading a request: every check raises [Refused], which [parse_request]
   and the service's [guard_result] turn into the error reply *)

exception Refused of error_code * string

let bad fmt = Printf.ksprintf (fun m -> raise (Refused (Bad_request, m))) fmt

let params_members = function
  | Json.Null -> []
  | Json.Obj members -> members
  | _ -> bad "\"params\" must be an object"

(* a typed param accessor: the JSON converter and what the refusal
   calls the expected kind *)
type 'a kind = (Json.t -> 'a option) * string

let number : float kind = (Json.to_float, "a number")
let integer : int kind = (Json.to_int, "an integer")
let boolean : bool kind = (Json.to_bool, "a boolean")
let str : string kind = (Json.to_str, "a string")

let param ((conv, what) : 'a kind) m k =
  Option.map
    (fun v ->
      match conv v with
      | Some x -> x
      | None -> bad "param %S must be %s" k what)
    (List.assoc_opt k m)

let required kind m k =
  match param kind m k with
  | Some x -> x
  | None -> bad "missing required param %S" k

let opt_str_list m k =
  Option.map
    (fun v ->
      match Json.to_list v with
      | None -> bad "param %S must be an array" k
      | Some items ->
        List.map
          (fun item ->
            match Json.to_str item with
            | Some s -> s
            | None -> bad "param %S must hold strings" k)
          items)
    (List.assoc_opt k m)

(* ["freqs": [...]] or a generated span ["fstart"/"fstop"/"points"
   with log (default) or lin "spacing"] *)
let freqs_of_params m =
  match List.assoc_opt "freqs" m with
  | Some v -> (
    match Json.float_list v with
    | Some (_ :: _ as l) -> Array.of_list l
    | Some [] -> bad "\"freqs\" must not be empty"
    | None -> bad "\"freqs\" must be an array of numbers")
  | None -> (
    let fstart = required number m "fstart" in
    let fstop = required number m "fstop" in
    let points = Option.value (param integer m "points") ~default:50 in
    if points < 1 then bad "\"points\" must be >= 1";
    match Option.value (param str m "spacing") ~default:"log" with
    | "log" -> Sn_numerics.Sweep.logspace fstart fstop points
    | "lin" -> Sn_numerics.Sweep.linspace fstart fstop points
    | other -> bad "unknown spacing %S (log or lin)" other)

let str_member json field =
  Option.map
    (fun v ->
      match Json.to_str v with
      | Some s -> s
      | None -> bad "%S must be a string" field)
    (Json.member field json)

(* the envelope checks, in the order their refusals take precedence *)
let read_request json =
  (match json with
  | Json.Obj _ -> ()
  | _ -> bad "a request must be a JSON object");
  (match str_member json "type" with
  | None | Some "request" -> ()
  | Some other -> bad "unexpected message type %S" other);
  let name =
    match str_member json "verb" with
    | Some name -> name
    | None -> bad "missing \"verb\""
  in
  let verb =
    match verb_of_string name with
    | Some verb -> verb
    | None ->
      raise (Refused (Unknown_verb, Printf.sprintf "unknown verb %S" name))
  in
  let inline, path =
    match verb with
    | Extract -> ("layout", "layout_path")
    | _ -> ("deck", "deck_path")
  in
  if Option.is_some (Json.member inline json)
     && Option.is_some (Json.member path json)
  then bad "give %S or %S, not both" inline path;
  let source =
    match str_member json inline with
    | Some text -> Some (Inline text)
    | None -> Option.map (fun p -> Path p) (str_member json path)
  in
  let deadline_ms =
    match Json.member "deadline_ms" json with
    | None | Some Json.Null -> None
    | Some (Json.Num v) when v > 0.0 && Float.is_finite v -> Some v
    | Some _ -> bad "\"deadline_ms\" must be a positive number"
  in
  let overrides =
    match Json.member "overrides" json with
    | None -> []
    | Some (Json.Obj members) ->
      List.rev_map
        (function
          | k, Json.Num v -> (k, v)
          | k, _ -> bad "override %S must be a number" k)
        members
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    | Some _ -> bad "\"overrides\" must be an object"
  in
  let field k = Option.value (Json.member k json) ~default:Json.Null in
  { id = field "id"; verb; source; overrides; deadline_ms;
    params = field "params" }

let parse_request json =
  match read_request json with
  | req -> Ok req
  | exception Refused (code, message) -> Error (code, message)

type cache_note = Hit | Miss | Not_applicable

let cache_note_json = function
  | Hit -> Json.Str "hit"
  | Miss -> Json.Str "miss"
  | Not_applicable -> Json.Null

type served = {
  elapsed_ms : float;
  plan : cache_note;
  bias : cache_note;
  batched : int;
}

let response ~id ~verb ~served result =
  Json.Obj
    [
      ("type", Json.Str "response");
      ("id", id);
      ("verb", Json.Str (verb_name verb));
      ("result", result);
      ( "served",
        Json.Obj
          [
            ("elapsed_ms", Json.Num served.elapsed_ms);
            ("plan", cache_note_json served.plan);
            ("bias", cache_note_json served.bias);
            ("batched", Json.Num (float_of_int served.batched));
          ] );
    ]

let error ?(id = Json.Null) ?(data = []) code message =
  Json.Obj
    [
      ("type", Json.Str "error");
      ("id", id);
      ( "error",
        Json.Obj
          (("code", Json.Str (error_code_name code))
           :: ("message", Json.Str message)
           :: data) );
    ]

let diag_error ?id d =
  let code =
    match d with
    | Sn_engine.Diag.Bad_input { loc; _ }
      when String.equal loc.Sn_engine.Diag.analysis "lint" ->
      Lint_refused
    | _ -> Engine_diag
  in
  error ?id ~data:[ ("diag", Sn_engine.Diag.to_json d) ] code
    (Sn_engine.Diag.to_string d)
