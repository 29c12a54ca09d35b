(* The resident service: wire protocol round-trips, structured errors
   on malformed input, plan-cache hit/miss/invalidation, coalesced
   batching byte-identity, quota/backpressure, and a real socket
   session against a threaded server. *)

module J = Sn_server.Json
module P = Sn_server.Protocol
module Sv = Sn_server.Service
module Srv = Sn_server.Server
module Pc = Sn_server.Plan_cache

let deck =
  "* rc divider\nv1 in 0 dc 1 ac 1\nr1 in out 1k\nr2 out 0 1k\n.end\n"

(* same topology, different value: a distinct content key *)
let deck_edited =
  "* rc divider\nv1 in 0 dc 1 ac 1\nr1 in out 1k\nr2 out 0 2k\n.end\n"

let bad_lint_deck =
  "* voltage source loop\nv1 in 0 1.0\nv2 in 0 2.0\nr1 in 0 1k\n.end\n"

let member name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (J.to_string j)

let str j =
  match J.to_str j with
  | Some s -> s
  | None -> Alcotest.failf "not a string: %s" (J.to_string j)

let msg_type reply = str (member "type" reply)

let error_code reply = str (member "code" (member "error" reply))

let plan_note reply = member "plan" (member "served" reply)

let result_str reply = J.to_string (member "result" reply)

let handle1 svc line =
  match Sv.handle svc ~client:1 line with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 reply, got %d" (List.length rs)

(* [f] given service options running on a fresh pool of width [jobs] *)
let with_jobs jobs f =
  let pool = Sn_engine.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Sn_engine.Pool.shutdown pool) @@ fun () ->
  f { Snoise.Flow.default_options with Snoise.Flow.pool = Some pool }

let request ?(id = 1) ~verb ?deck:d ?params () =
  let fields =
    [ ("id", string_of_int id); ("verb", Printf.sprintf "%S" verb) ]
    @ (match d with
      | Some text -> [ ("deck", J.to_string (J.Str text)) ]
      | None -> [])
    @ match params with Some p -> [ ("params", p) ] | None -> []
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let cases =
    [
      {|{"a": [1, 2.5, -0.03], "b": "x\ny\u0041\u00e9", "c": [true, false, null]}|};
      {|[1e300, 1e-300, 0, -0, 123456789012345]|};
      {|{"nested": {"deep": [[[{"k": "v"}]]]}}|};
      {|"\u0068\u0065\ud83d\ude00"|};
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok j -> (
        let s2 = J.to_string j in
        match J.parse s2 with
        | Error e -> Alcotest.failf "reparse %s: %s" s2 e
        | Ok j2 ->
          Alcotest.(check string) "print is stable" s2 (J.to_string j2)))
    cases

let test_json_specials () =
  (* non-finite floats render as strings (the Diag.to_json convention)
     and integers render bare *)
  Alcotest.(check string) "nan" {|"nan"|} (J.to_string (J.Num Float.nan));
  Alcotest.(check string) "inf" {|"inf"|}
    (J.to_string (J.Num Float.infinity));
  Alcotest.(check string) "int" "42" (J.to_string (J.Num 42.0));
  Alcotest.(check string)
    "escape" {|"a\"b\\c\nd"|}
    (J.to_string (J.Str "a\"b\\c\nd"))

(* every control character, the quote and the backslash: \n, \r and
   \t by name, the rest as \u00XX in lower-case hex *)
let test_json_escapes () =
  let all = String.init 32 Char.chr ^ "\"\\" in
  Alcotest.(check string)
    "escapes"
    ({|"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b|}
    ^ {|\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017|}
    ^ {|\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\"|})
    (J.to_string (J.Str all));
  Alcotest.(check (result string string)) "escapes parse back" (Ok all)
    (Result.map (fun j -> Option.get (J.to_str j)) (J.parse (J.to_string (J.Str all))))

let test_json_errors () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok j -> Alcotest.failf "accepted %S as %s" s (J.to_string j)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"\\x\""; "{\"a\" 1}" ]

(* ------------------------------------------------------------------ *)
(* protocol *)

let test_protocol_parse () =
  let parse s =
    match J.parse s with
    | Ok j -> P.parse_request j
    | Error e -> Alcotest.fail e
  in
  (match parse {|{"id": 7, "verb": "ac", "deck": "x", "overrides": {"r1": 2e3}}|}
   with
  | Ok req ->
    Alcotest.(check string) "verb" "ac" (P.verb_name req.P.verb);
    Alcotest.(check (list (pair string (float 0.0))))
      "overrides" [ ("r1", 2000.0) ] req.P.overrides
  | Error (_, m) -> Alcotest.fail m);
  (match parse {|{"verb": "warp"}|} with
  | Error (P.Unknown_verb, _) -> ()
  | _ -> Alcotest.fail "unknown verb accepted");
  (match parse {|{"verb": "op", "deck": "x", "deck_path": "y"}|} with
  | Error (P.Bad_request, _) -> ()
  | _ -> Alcotest.fail "deck+deck_path accepted");
  (match parse {|{"verb": "op", "overrides": {"r1": "big"}}|} with
  | Error (P.Bad_request, _) -> ()
  | _ -> Alcotest.fail "non-numeric override accepted");
  match parse {|[1, 2]|} with
  | Error (P.Bad_request, _) -> ()
  | _ -> Alcotest.fail "non-object accepted"

let test_cache_key () =
  let k = Pc.deck_key ~text:deck ~overrides:[] in
  Alcotest.(check string)
    "key is deterministic" k
    (Pc.deck_key ~text:deck ~overrides:[]);
  Alcotest.(check bool)
    "text edit changes the key" false
    (String.equal k (Pc.deck_key ~text:deck_edited ~overrides:[]));
  Alcotest.(check bool)
    "override changes the key" false
    (String.equal k (Pc.deck_key ~text:deck ~overrides:[ ("r2", 2000.0) ]))

(* ------------------------------------------------------------------ *)
(* service: structured errors, never a crash *)

let test_malformed_requests () =
  let svc = Sv.create () in
  let check_code want line =
    let reply = handle1 svc line in
    Alcotest.(check string) "error type" "error" (msg_type reply);
    Alcotest.(check string) ("code for " ^ line) want (error_code reply)
  in
  check_code "parse-error" "this is not json";
  check_code "unknown-verb" {|{"verb": "warp"}|};
  check_code "bad-request" {|{"verb": "ac", "deck": "x"}|};
  check_code "bad-request" {|{"verb": "op"}|};
  check_code "deck-unreadable" {|{"verb": "op", "deck_path": "/nonexistent"}|};
  check_code "deck-unreadable" {|{"verb": "op", "deck": "r1 a\n.end"}|};
  (* unknown node in a valid deck *)
  let reply =
    handle1 svc
      (request ~verb:"op" ~deck ~params:{|{"nodes": ["nothere"]}|} ())
  in
  Alcotest.(check string) "bad node" "bad-request" (error_code reply);
  (* the service survives all of the above *)
  let reply = handle1 svc {|{"id": 1, "verb": "ping"}|} in
  Alcotest.(check string) "still alive" "response" (msg_type reply)

(* every refusal the request reader can give, code and message as the
   client reads them: the envelope checks in their order, then the
   params accessors (reached through verbs that read params before
   touching a deck) *)
let test_refusal_messages () =
  let svc = Sv.create () in
  List.iter
    (fun (line, code, message) ->
      let reply = handle1 svc line in
      let error = member "error" reply in
      Alcotest.(check (pair string string))
        line (code, message)
        (str (member "code" error), str (member "message" error)))
    [
      ({|[1, 2]|}, "bad-request", "a request must be a JSON object");
      ( {|{"type": "response", "verb": "ping"}|},
        "bad-request",
        {|unexpected message type "response"|} );
      ( {|{"type": 1, "verb": "ping"}|},
        "bad-request",
        {|"type" must be a string|} );
      ({|{"id": 1}|}, "bad-request", {|missing "verb"|});
      ({|{"verb": 7}|}, "bad-request", {|"verb" must be a string|});
      ({|{"verb": "warp"}|}, "unknown-verb", {|unknown verb "warp"|});
      ( {|{"verb": "op", "deck": "x", "deck_path": "y"}|},
        "bad-request",
        {|give "deck" or "deck_path", not both|} );
      ( {|{"verb": "op", "deck": 1}|},
        "bad-request",
        {|"deck" must be a string|} );
      ( {|{"verb": "extract", "layout_path": []}|},
        "bad-request",
        {|"layout_path" must be a string|} );
      ( {|{"verb": "op", "deadline_ms": -1}|},
        "bad-request",
        {|"deadline_ms" must be a positive number|} );
      ( {|{"verb": "op", "overrides": {"r1": "big"}}|},
        "bad-request",
        {|override "r1" must be a number|} );
      ( {|{"verb": "op", "overrides": [1]}|},
        "bad-request",
        {|"overrides" must be an object|} );
      ( {|{"verb": "spur", "params": {"f_noise": "x"}}|},
        "bad-request",
        {|param "f_noise" must be a number|} );
      ( {|{"verb": "spur", "params": {}}|},
        "bad-request",
        {|missing required param "f_noise"|} );
      ( {|{"verb": "ac", "params": [1]}|},
        "bad-request",
        {|"params" must be an object|} );
      ( {|{"verb": "ac", "params": {"nodes": "out"}}|},
        "bad-request",
        {|param "nodes" must be an array|} );
      ( {|{"verb": "ac", "params": {"nodes": [1]}}|},
        "bad-request",
        {|param "nodes" must hold strings|} );
    ]

let test_lint_refused () =
  let svc = Sv.create () in
  let reply = handle1 svc (request ~verb:"op" ~deck:bad_lint_deck ()) in
  Alcotest.(check string) "refused" "error" (msg_type reply);
  Alcotest.(check string) "code" "lint-refused" (error_code reply);
  (* the embedded analyzer report is structured JSON, not a string *)
  (match member "lint" (member "error" reply) with
  | J.Obj _ -> ()
  | other -> Alcotest.failf "lint data not an object: %s" (J.to_string other));
  (* the lint verb reports instead of refusing *)
  let reply = handle1 svc (request ~verb:"lint" ~deck:bad_lint_deck ()) in
  Alcotest.(check string) "lint runs" "response" (msg_type reply);
  match member "failing" (member "result" reply) with
  | J.Bool true -> ()
  | other -> Alcotest.failf "expected failing=true, got %s" (J.to_string other)

let test_plan_cache_lifecycle () =
  let svc = Sv.create () in
  let note reply = J.to_string (plan_note reply) in
  let op d = handle1 svc (request ~verb:"op" ~deck:d ()) in
  Alcotest.(check string) "cold deck misses" {|"miss"|} (note (op deck));
  Alcotest.(check string) "warm deck hits" {|"hit"|} (note (op deck));
  let ac =
    handle1 svc
      (request ~verb:"ac" ~deck
         ~params:{|{"freqs": [1e6], "nodes": ["out"]}|} ())
  in
  Alcotest.(check string) "ac reuses the op plan" {|"hit"|} (note ac);
  Alcotest.(check string)
    "bias memoized too" {|"hit"|}
    (J.to_string (member "bias" (member "served" ac)));
  (* invalidation: editing the deck text changes the content key *)
  Alcotest.(check string)
    "edited deck misses" {|"miss"|}
    (note (op deck_edited));
  Alcotest.(check string)
    "original still resident" {|"hit"|} (note (op deck));
  let stats = Pc.stats (Sv.cache svc) in
  Alcotest.(check int) "two plans resident" 2 stats.Pc.plans;
  Alcotest.(check bool) "hits counted" true (stats.Pc.plan_hits >= 3)

(* [probe find key] is whether [key] is resident: a raising compute
   counts a miss and caches nothing *)
let resident find key =
  match find key (fun () -> raise Exit) with
  | _, P.Hit -> true
  | _, _ -> false
  | exception Exit -> false

let test_plan_cache_eviction () =
  let pc = Pc.create ~max_decks:2 ~max_flows:1 in
  let plan =
    {
      Pc.cp_plan =
        Snoise.Flow.compile_deck ~lint:false
          (Sn_circuit.Spice.of_string ~file:"rc" deck);
      cp_reduced = None;
      cp_cert = None;
    }
  in
  let find key compile = Pc.find_compiled pc ~key ~compile in
  let insert key = ignore (find key (fun () -> plan)) in
  insert "a";
  insert "b";
  Alcotest.(check bool) "a hits" true (resident find "a");
  insert "c";
  Alcotest.(check bool) "least recent b evicted" false (resident find "b");
  Alcotest.(check bool) "recently used a kept" true (resident find "a");
  Alcotest.(check int) "one eviction" 1 (Pc.stats pc).Pc.evictions;
  Alcotest.(check int) "shed drops every resident plan" 2
    (fst (Pc.shed pc ~keep:0));
  Alcotest.(check int) "none resident" 0 (Pc.stats pc).Pc.plans

let test_macro_layer_bounded () =
  let pc = Pc.create ~max_decks:2 ~max_flows:1 in
  let macro =
    Sn_substrate.Macromodel.make
      ~ports:
        (Array.init 2 (fun k ->
             Sn_substrate.Port.v ~name:(Printf.sprintf "p%d" k)
               ~kind:Sn_substrate.Port.Resistive
               [ Sn_geometry.Rect.make 0.0 0.0 1.0 1.0 ]))
      ~conductance:
        (Sn_numerics.Mat.of_flat ~rows:2 ~cols:2 [| 1.0; -1.0; -1.0; 1.0 |])
      ~well_capacitance:[]
  in
  let find text extract = Pc.find_macro pc ~text ~extract in
  List.iter (fun text -> ignore (find text (fun () -> macro))) [ "l1"; "l2"; "l3" ];
  Alcotest.(check bool) "oldest layout evicted" false (resident find "l1");
  Alcotest.(check bool) "newest layout kept" true (resident find "l3");
  ignore (Pc.shed pc ~keep:0);
  Alcotest.(check bool) "shed empties the layer" false (resident find "l3");
  Alcotest.(check bool) "shed empties the layer" false (resident find "l2")

(* the spur verb's VCO flows: keyed by (vtune, nx, ny), bounded at
   max_flows, counted, and halved by shed *)
let test_flow_layer_bounded () =
  let pc = Pc.create ~max_decks:1 ~max_flows:2 in
  let flow =
    let o = Snoise.Flow.default_options in
    let grid = { o.Snoise.Flow.grid with Sn_substrate.Grid.nx = 8; ny = 8 } in
    Snoise.Flow.build_vco
      ~options:{ o with Snoise.Flow.grid }
      Sn_testchip.Vco_chip.default ~vtune:0.0
  in
  let find vtune build = Pc.find_flow pc ~vtune ~nx:8 ~ny:8 ~build in
  List.iter (fun v -> ignore (find v (fun () -> flow))) [ 0.0; 0.45; 0.9 ];
  Alcotest.(check bool) "oldest flow evicted" false (resident find 0.0);
  Alcotest.(check bool) "newest flow kept" true (resident find 0.9);
  Alcotest.(check bool) "the grid is part of the key" false
    (resident (fun vtune build -> Pc.find_flow pc ~vtune ~nx:8 ~ny:9 ~build) 0.9);
  let s = Pc.stats pc in
  Alcotest.(check (list int)) "flows, capacity, hits, misses, evictions"
    [ 2; 2; 1; 5; 1 ]
    [ s.Pc.flows; s.Pc.flow_capacity; s.Pc.flow_hits; s.Pc.flow_misses;
      s.Pc.flow_evictions ];
  Alcotest.(check (pair int int)) "shed drops the older half of the flows"
    (0, 1) (Pc.shed pc ~keep:0);
  Alcotest.(check bool) "most recent flow kept" true (resident find 0.9)

(* batched sweep must be byte-identical to one-by-one serving *)
let batch_vs_individual jobs () =
  with_jobs jobs (fun options ->
      let freq_sets =
        [ "[1e6, 3e6]"; "[2e6]"; "[1e6, 5e6, 9e6]"; "[3e6, 2e6]" ]
      in
      let req id freqs =
        request ~id ~verb:"ac" ~deck
          ~params:(Printf.sprintf {|{"freqs": %s, "nodes": ["out", "in"]}|} freqs)
          ()
      in
      (* batched: all queued before one drain *)
      let batched = Sv.create ~options () in
      List.iteri
        (fun i freqs ->
          match Sv.submit batched ~client:1 (req i freqs) with
          | `Queued -> ()
          | _ -> Alcotest.fail "expected queued")
        freq_sets;
      let batched_replies = List.map snd (Sv.drain batched) in
      (* individual: a fresh service, one request at a time *)
      let indiv = Sv.create ~options () in
      let indiv_replies =
        List.mapi (fun i freqs -> handle1 indiv (req i freqs)) freq_sets
      in
      List.iteri
        (fun i (b, s) ->
          Alcotest.(check string)
            (Printf.sprintf "request %d byte-identical (jobs %d)" i jobs)
            (result_str s) (result_str b);
          match member "batched" (member "served" b) with
          | J.Num n when int_of_float n = List.length freq_sets -> ()
          | other ->
            Alcotest.failf "expected batched=%d, got %s"
              (List.length freq_sets) (J.to_string other))
        (List.combine batched_replies indiv_replies))

let test_batch_errors_all_members () =
  let svc = Sv.create () in
  List.iter
    (fun i ->
      match
        Sv.submit svc ~client:1
          (request ~id:i ~verb:"ac" ~deck:bad_lint_deck
             ~params:{|{"freqs": [1e6], "nodes": ["in"]}|} ())
      with
      | `Queued -> ()
      | _ -> Alcotest.fail "expected queued")
    [ 1; 2 ];
  let replies = List.map snd (Sv.drain svc) in
  Alcotest.(check int) "both answered" 2 (List.length replies);
  List.iter
    (fun r -> Alcotest.(check string) "each refused" "lint-refused" (error_code r))
    replies;
  (* each member keeps its own id *)
  let ids =
    List.map (fun r -> J.to_string (member "id" r)) replies
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "distinct ids" [ "1"; "2" ] ids

let test_quota_and_backpressure () =
  let config =
    { Sv.default_config with max_queue = 4; client_quota = 2; max_decks = 8;
      tran_max_points = 1000 }
  in
  let svc = Sv.create ~config () in
  let submit client id =
    Sv.submit svc ~client (request ~id ~verb:"op" ~deck ())
  in
  (match submit 1 1 with `Queued -> () | _ -> Alcotest.fail "q1");
  (match submit 1 2 with `Queued -> () | _ -> Alcotest.fail "q2");
  (match submit 1 3 with
  | `Replied r ->
    Alcotest.(check string) "third is over quota" "quota-exceeded"
      (error_code r)
  | _ -> Alcotest.fail "expected quota refusal");
  (* another client still gets in *)
  (match submit 2 4 with `Queued -> () | _ -> Alcotest.fail "client 2");
  (match submit 3 5 with `Queued -> () | _ -> Alcotest.fail "client 3");
  (* queue now full (4): anyone is refused busy, with a retry hint *)
  (match submit 4 6 with
  | `Replied r ->
    Alcotest.(check string) "full queue is busy" "busy" (error_code r);
    (match member "retry_after_ms" (member "error" r) with
    | J.Num _ -> ()
    | other -> Alcotest.failf "retry hint: %s" (J.to_string other))
  | _ -> Alcotest.fail "expected busy refusal");
  (* draining frees the queue and resets the per-client counts *)
  let replies = Sv.drain svc in
  Alcotest.(check int) "all queued served" 4 (List.length replies);
  match submit 1 7 with
  | `Queued -> ()
  | _ -> Alcotest.fail "quota resets after drain"

let test_stats_shape () =
  let svc = Sv.create () in
  ignore (handle1 svc (request ~verb:"op" ~deck ()));
  ignore (handle1 svc "garbage");
  let stats = Sv.stats_json svc in
  List.iter
    (fun k -> ignore (member k stats))
    [
      "uptime_s"; "requests"; "responses"; "errors"; "by_verb"; "queue";
      "batch"; "plan_cache"; "timings_ms"; "pool"; "tile_cache"; "reduction";
      "memory"; "cancel"; "restarts"; "journal";
    ];
  ignore (member "reductions" (member "reduction" stats));
  ignore (member "origin" (member "tile_cache" stats));
  (* the new resilience counters *)
  List.iter
    (fun k -> ignore (member k (member "plan_cache" stats)))
    [ "plan_words"; "shed_plans"; "flows"; "flow_capacity"; "flow_evictions" ];
  List.iter
    (fun k -> ignore (member k (member "memory" stats)))
    [ "watermark_mb"; "heap_mb"; "shed_events"; "rejected_memory" ];
  List.iter
    (fun k -> ignore (member k (member "cancel" stats)))
    [ "deadline_exceeded"; "disconnected" ];
  match member "plan_misses" (member "plan_cache" stats) with
  | J.Num n when n >= 1.0 -> ()
  | other -> Alcotest.failf "plan_misses: %s" (J.to_string other)


(* ------------------------------------------------------------------ *)
(* server-side model-order reduction via reserved override keys *)

let ladder_deck =
  let b = Buffer.create 512 in
  Buffer.add_string b "* reducible ladder\n*%snoise reduce keep=out\n";
  Buffer.add_string b "vin in 0 dc 0 ac 1\nrdrv in p0 50\n";
  for i = 0 to 23 do
    Buffer.add_string b (Printf.sprintf "rl%d p%d p%d 100\n" i i (i + 1));
    Buffer.add_string b (Printf.sprintf "cl%d p%d 0 1p\n" (i + 1) (i + 1))
  done;
  Buffer.add_string b "rout p24 out 100\nrload out 0 10k\n.end\n";
  Buffer.contents b

let ac_request ?overrides () =
  Printf.sprintf
    {|{"id": 1, "verb": "ac", "deck": %s, "params": {"freqs": [1e6, 1e8, 1e9], "nodes": ["out"]}%s}|}
    (J.to_string (J.Str ladder_deck))
    (match overrides with
    | None -> ""
    | Some ov -> Printf.sprintf {|, "overrides": %s|} ov)

let out_values reply =
  match J.to_list (member "points" (member "result" reply)) with
  | None -> Alcotest.fail "points not a list"
  | Some pts ->
    List.map
      (fun p ->
        match J.to_list (member "out" (member "v" p)) with
        | Some [ re; im ] ->
          {
            Complex.re = Option.get (J.to_float re);
            im = Option.get (J.to_float im);
          }
        | _ -> Alcotest.fail "v.out not a [re, im] pair")
      pts

let test_reduce_overrides () =
  let svc = Sv.create () in
  let exact = handle1 svc (ac_request ()) in
  let reduced =
    handle1 svc (ac_request ~overrides:{|{"reduce_tol": 1e-8}|} ())
  in
  Alcotest.(check string) "exact deck misses" {|"miss"|}
    (J.to_string (plan_note exact));
  Alcotest.(check string)
    "reduce override compiles its own plan" {|"miss"|}
    (J.to_string (plan_note reduced));
  Alcotest.(check bool) "a reduction ran" true
    (match member "reductions" (member "reduction" (Sv.stats_json svc)) with
    | J.Num n -> n >= 1.0
    | _ -> false);
  let ve = out_values exact and vr = out_values reduced in
  let vmax =
    List.fold_left (fun a c -> Float.max a (Complex.norm c)) 0.0 ve
  in
  List.iter2
    (fun e r ->
      let err = Complex.norm (Complex.sub e r) /. vmax in
      Alcotest.(check bool)
        (Printf.sprintf "reduced transfer tracks exact (err %.2e)" err)
        true (err < 1e-4))
    ve vr;
  (* fixed-order spelling works too and lands on the same answer *)
  let fixed =
    handle1 svc (ac_request ~overrides:{|{"reduce_order": 6}|} ())
  in
  let vf = out_values fixed in
  List.iter2
    (fun e f ->
      let err = Complex.norm (Complex.sub e f) /. vmax in
      Alcotest.(check bool)
        (Printf.sprintf "fixed order tracks exact (err %.2e)" err)
        true (err < 1e-4))
    ve vf;
  (* validation: structured refusals, not crashes *)
  let check_bad name ov =
    let reply = handle1 svc (ac_request ~overrides:ov ()) in
    Alcotest.(check string) name "bad-request" (error_code reply)
  in
  check_bad "fractional order refused" {|{"reduce_order": 0.5}|};
  check_bad "conflicting modes refused"
    {|{"reduce_order": 4, "reduce_tol": 1e-6}|};
  check_bad "dangling s0 refused" {|{"reduce_s0": 1e8}|};
  check_bad "out-of-range tol refused" {|{"reduce_tol": 2.0}|};
  check_bad "zero order refused" {|{"reduce_order": 0}|};
  check_bad "order above 1024 refused" {|{"reduce_order": 2000}|};
  check_bad "zero tol refused" {|{"reduce_tol": 0}|};
  check_bad "negative s0 refused" {|{"reduce_s0": -1}|}

(* ------------------------------------------------------------------ *)
(* the verify verb: deck pre-flight, tile-cache and plan-cache modes *)

let illcond_deck_text =
  "* conditioning span\ni1 0 a dc 1m\nrbig a b 1e-20\nr2 b 0 1\n.end\n"

let check_schema_version result =
  match member "schema_version" result with
  | J.Num n when n = float_of_int Sn_analysis.Analyzer.schema_version -> ()
  | other -> Alcotest.failf "schema_version: %s" (J.to_string other)

let test_verify_verb () =
  let svc = Sv.create () in
  (* deck mode: a clean deck verifies *)
  let clean = handle1 svc (request ~verb:"verify" ~deck ()) in
  Alcotest.(check string) "clean is a response" "response" (msg_type clean);
  let result = member "result" clean in
  Alcotest.(check string) "deck mode" {|"deck"|}
    (J.to_string (member "mode" result));
  check_schema_version result;
  Alcotest.(check string) "clean deck not failing" "false"
    (J.to_string (member "failing" result));
  Alcotest.(check string) "nothing reduced" {|"not-reduced"|}
    (J.to_string (member "reduction" result));
  (* deck mode: an ill-conditioned deck fails with a populated
     conditioning analysis *)
  let ill =
    handle1 svc (request ~id:2 ~verb:"verify" ~deck:illcond_deck_text ())
  in
  let r = member "result" ill in
  Alcotest.(check string) "ill-conditioned deck failing" "true"
    (J.to_string (member "failing" r));
  (match J.to_list (member "conditioning" r) with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "conditioning analysis empty");
  (* plans mode: a reduced ac request leaves a certified resident
     plan, and hash-only re-verification finds it healthy *)
  let ac = handle1 svc (ac_request ~overrides:{|{"reduce_order": 4}|} ()) in
  Alcotest.(check string) "reduced ac served" "response" (msg_type ac);
  let plans = handle1 svc (request ~id:3 ~verb:"verify" ()) in
  let pr = member "result" plans in
  Alcotest.(check string) "plans mode" {|"plans"|}
    (J.to_string (member "mode" pr));
  check_schema_version pr;
  let n_of field =
    match member field pr with
    | J.Num n -> int_of_float n
    | other -> Alcotest.failf "%s: %s" field (J.to_string other)
  in
  Alcotest.(check bool) "plans resident" true (n_of "plans" >= 1);
  Alcotest.(check bool) "a certified plan" true (n_of "certified" >= 1);
  Alcotest.(check int) "no bad plans" 0 (n_of "bad");
  Alcotest.(check string) "plan cache healthy" "false"
    (J.to_string (member "failing" pr));
  (match
     member "certified_plans" (member "plan_cache" (Sv.stats_json svc))
   with
  | J.Num n when n >= 1.0 -> ()
  | other -> Alcotest.failf "stats certified_plans: %s" (J.to_string other));
  (* cache mode dispatches on params.cache_dir *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "snoise_verify_verb_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let cached =
    handle1 svc
      (request ~id:4 ~verb:"verify"
         ~params:(Printf.sprintf {|{"cache_dir": %s}|} (J.to_string (J.Str dir)))
         ())
  in
  let cr = member "result" cached in
  Alcotest.(check string) "cache mode" {|"cache"|}
    (J.to_string (member "mode" cr));
  Alcotest.(check string) "empty cache dir passes" "false"
    (J.to_string (member "failing" cr));
  (* structured refusals: both sources, and a missing directory *)
  let both =
    handle1 svc
      (request ~id:5 ~verb:"verify" ~deck
         ~params:(Printf.sprintf {|{"cache_dir": %s}|} (J.to_string (J.Str dir)))
         ())
  in
  Alcotest.(check string) "deck+cache_dir refused" "bad-request"
    (error_code both);
  let missing =
    handle1 svc
      (request ~id:6 ~verb:"verify"
         ~params:{|{"cache_dir": "/nonexistent/snoise"}|} ())
  in
  Alcotest.(check string) "missing dir refused" "bad-request"
    (error_code missing)

(* ------------------------------------------------------------------ *)
(* fuzz: the wire parser is total *)

(* Mutate valid documents (including a realistic request line) at
   random byte positions: parse must never raise — only [Error _] or a
   value whose rendering round-trips stably. *)
let prop_json_fuzz =
  let docs =
    [|
      {|{"id": 1, "verb": "ac", "deck": "v1 in 0 dc 1 ac 1\nr1 in out 1k\n.end\n", "params": {"freqs": [1e6, 2.5e6], "nodes": ["out"]}, "deadline_ms": 125.5}|};
      {|{"a": [1, 2.5, -3e-7, true, false, null], "b": {"c": "d\ne\u0041"}}|};
      {|[[[]], {}, "\u0068\ud83d\ude00", 1e300, -0.0, 123456789012345]|};
      {|{"overrides": {"r1": 2e3}, "auth_token": "s3cret", "deck_path": "/x"}|};
    |]
  in
  QCheck.Test.make ~count:1000 ~name:"Json.parse total on mutated documents"
    QCheck.(
      pair
        (int_range 0 (Array.length docs - 1))
        (small_list (pair small_nat (int_range 0 255))))
    (fun (di, muts) ->
      let doc = Bytes.of_string docs.(di) in
      List.iter
        (fun (p, c) -> Bytes.set doc (p mod Bytes.length doc) (Char.chr c))
        muts;
      let mutated = Bytes.to_string doc in
      match J.parse mutated with
      | Error _ -> true
      | Ok j -> (
        let printed = J.to_string j in
        match J.parse printed with
        | Ok j2 -> String.equal printed (J.to_string j2)
        | Error _ -> false)
      | exception _ -> false)

(* the float printer against the printf rule it replaces, byte for
   byte, and bit-exact when read back.  Values are drawn where the
   decisions are close: digit strings that end on a tie, neighbours of
   powers of ten (the decade guess) and of two (the narrower gap
   below), integers about 1e15 (the bare-integer cut), subnormals *)
let gen_printed_float =
  let open QCheck.Gen in
  let signed g = map2 (fun neg v -> if neg then -.v else v) bool g in
  let bits sign exp mant =
    Int64.float_of_bits
      Int64.(logor (shift_left (of_int ((sign lsl 11) lor exp)) 52) mant)
  in
  let mantissa = map (fun m -> Int64.shift_right_logical m 12) ui64 in
  let neighbour x k =
    let step = if k < 0 then Float.pred else Float.succ in
    let rec go x k = if k = 0 then x else go (step x) (k - 1) in
    go x (abs k)
  in
  frequency
    [
      (3, map3 bits (int_bound 1) (int_bound 2046) mantissa);
      (3, signed (map (fun e -> 10.0 ** e) (float_range (-20.0) 2.0)));
      (1, float_range (-180.0) 180.0);
      (1, map (fun e -> 10.0 ** e) (float_range 5.0 7.2));
      ( 2,
        map2
          (fun m e -> float_of_string (Printf.sprintf "%de%d" m e))
          (int_bound 999_999_999) (int_range (-30) 30) );
      (1, oneofl [ 0.0; -0.0; Float.max_float; -.Float.max_float ]);
      (1, map3 bits (int_bound 1) (return 0) mantissa);
      (2, signed (map (fun k -> 1e15 +. float_of_int k) (int_range (-2000) 2000)));
      (1, signed (map Int64.to_float (map (fun m -> Int64.shift_right_logical m 11) ui64)));
      ( 2,
        map2 neighbour
          (map (fun k -> float_of_string (Printf.sprintf "1e%d" k)) (int_range (-40) 70))
          (int_range (-3) 3) );
      (2, map2 neighbour (map (Float.ldexp 1.0) (int_range (-1074) 1023)) (int_range (-3) 3));
    ]

let prop_float_printer =
  QCheck.Test.make ~count:50_000 ~name:"printer = printf rule"
    (QCheck.make ~print:(Printf.sprintf "%h") gen_printed_float)
    (fun v ->
      let s = J.shortest_float v in
      String.equal s (Sn_oracle.Printf_float.shortest_float v)
      && String.equal s (J.to_string (J.Num v))
      && Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float v))

(* ------------------------------------------------------------------ *)
(* deadlines *)

let deadline_line ?(id = 1) ms =
  Printf.sprintf
    {|{"id": %d, "verb": "ac", "deck": %s, "params": {"freqs": [1e6, 2e6], "nodes": ["out"]}, "deadline_ms": %s}|}
    id
    (J.to_string (J.Str deck))
    ms

let deadline_exceeded_at jobs () =
  with_jobs jobs (fun options ->
      let svc = Sv.create ~options () in
      (* a deadline this small has always passed by dispatch time, so
         the refusal is deterministic at any pool width *)
      let reply = handle1 svc (deadline_line "1e-6") in
      Alcotest.(check string) "refused" "error" (msg_type reply);
      Alcotest.(check string)
        "stable code" "deadline-exceeded" (error_code reply);
      (match member "progress" (member "error" reply) with
      | J.Obj _ -> ()
      | other -> Alcotest.failf "progress: %s" (J.to_string other));
      Alcotest.(check string)
        "reason" {|"deadline"|}
        (J.to_string (member "reason" (member "error" reply)));
      (* the pool slot was freed: subsequent work still runs *)
      let ok = handle1 svc (request ~id:2 ~verb:"op" ~deck ()) in
      Alcotest.(check string) "service survives" "response" (msg_type ok);
      (* a generous deadline is not a refusal *)
      let ok2 = handle1 svc (deadline_line ~id:3 "60000") in
      Alcotest.(check string) "generous deadline" "response" (msg_type ok2);
      (* the counter moved *)
      match member "deadline_exceeded" (member "cancel" (Sv.stats_json svc))
      with
      | J.Num n when n >= 1.0 -> ()
      | other -> Alcotest.failf "counter: %s" (J.to_string other))

let test_deadline_validation () =
  let svc = Sv.create () in
  List.iter
    (fun bad ->
      let reply = handle1 svc (deadline_line bad) in
      Alcotest.(check string)
        ("rejects deadline_ms " ^ bad)
        "bad-request" (error_code reply))
    [ "0"; "-5"; {|"soon"|}; "1e999" ];
  (* null means no deadline *)
  let ok = handle1 svc (deadline_line "null") in
  Alcotest.(check string) "null accepted" "response" (msg_type ok)

(* requests with different deadlines must not coalesce into one group
   (the group would cancel at the earliest member's deadline) *)
let test_deadline_no_coalesce () =
  let svc = Sv.create () in
  let submit id ms =
    match Sv.submit svc ~client:1 (deadline_line ~id ms) with
    | `Queued -> ()
    | _ -> Alcotest.fail "expected queued"
  in
  submit 1 "60000";
  submit 2 "120000";
  let replies = List.map snd (Sv.drain svc) in
  Alcotest.(check int) "both served" 2 (List.length replies);
  List.iter
    (fun r ->
      Alcotest.(check string) "served" "response" (msg_type r);
      match member "batched" (member "served" r) with
      | J.Num 1.0 -> ()
      | other ->
        Alcotest.failf "mixed deadlines coalesced: %s" (J.to_string other))
    replies

(* ------------------------------------------------------------------ *)
(* health *)

(* a served verify judges the reduction its own reduce_* overrides ask
   for, on the unreduced deck, exactly as the library pre-flight does *)
let test_verify_reduce_override () =
  let text =
    In_channel.with_open_bin
      (Filename.concat ".." "examples/decks/probe_divider.sp")
      In_channel.input_all
  in
  let reply =
    handle1 (Sv.create ())
      (Printf.sprintf
         {|{"id": 1, "verb": "verify", "deck": %s, "overrides": %s}|}
         (J.to_string (J.Str text)) {|{"reduce_order": 2}|})
  in
  let result = member "result" reply in
  Alcotest.(check string) "reduction certified" {|"certified"|}
    (J.to_string (member "reduction" result));
  let reduce =
    match Snoise.Reduced_model.config_of_knobs ~order:2.0 () with
    | Ok (Some c) -> c
    | _ -> Alcotest.fail "order 2 refused"
  in
  let nl = Sn_circuit.Spice.of_string ~file:"<inline>" text in
  Alcotest.(check string) "served document = library pre-flight"
    (J.to_string
       (Snoise.Report.verify_json (Snoise.Flow.preflight ~reduce nl)))
    (J.to_string result)

(* stats.reduction counts the reductions of this service only *)
let test_reduction_stats_per_service () =
  let a = Sv.create () and b = Sv.create () in
  let reduction svc = member "reduction" (Sv.stats_json svc) in
  let reduced = handle1 a (ac_request ~overrides:{|{"reduce_order": 4}|} ()) in
  Alcotest.(check string) "reduced ac served" "response" (msg_type reduced);
  Alcotest.(check string) "one reduction on A" "1"
    (J.to_string (member "reductions" (reduction a)));
  ignore (member "last_rank" (reduction a));
  Alcotest.(check string) "B untouched" {|{"reductions": 0}|}
    (J.to_string (reduction b))

(* the service's options reach the spur verb's flows: extraction and
   AC sweep run on the service's pool, which stats reports *)
let test_spur_follows_options () =
  with_jobs 2 @@ fun options ->
  let svc = Sv.create ~options () in
  let spur =
    handle1 svc
      (request ~verb:"spur"
         ~params:{|{"f_noise": 1e7, "vtune": 0.45, "nx": 12, "ny": 12}|} ())
  in
  Alcotest.(check string) "spur served" "response" (msg_type spur);
  let pool = Option.get options.Snoise.Flow.pool in
  Alcotest.(check bool) "the flow ran on the service's pool" true
    ((Sn_engine.Pool.stats pool).Sn_engine.Pool.tasks_run > 0);
  Alcotest.(check string) "stats report that pool" "2"
    (J.to_string (member "jobs" (member "pool" (Sv.stats_json svc))))

let test_spur_grid_range () =
  let svc = Sv.create () in
  let spur nx ny =
    handle1 svc
      (request ~verb:"spur"
         ~params:(Printf.sprintf {|{"f_noise": 1e7, "nx": %d, "ny": %d}|} nx ny)
         ())
  in
  List.iter
    (fun (nx, ny, name) ->
      let reply = spur nx ny in
      Alcotest.(check string) (Printf.sprintf "%dx%d refused" nx ny)
        "bad-request" (error_code reply);
      let message = str (member "message" (member "error" reply)) in
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s" message name)
        true
        (String.starts_with ~prefix:(Printf.sprintf "%S" name) message))
    [ (513, 4, "nx"); (4, 100000, "ny"); (3, 12, "nx") ]

let test_health_verb () =
  let svc = Sv.create () in
  let reply = handle1 svc {|{"id": 9, "verb": "health"}|} in
  Alcotest.(check string) "response" "response" (msg_type reply);
  let r = member "result" reply in
  Alcotest.(check string) "ready" {|"ok"|} (J.to_string (member "status" r));
  List.iter
    (fun k -> ignore (member k r))
    [ "status"; "uptime_s"; "queue"; "pool"; "cache"; "memory"; "restarts" ];
  ignore (member "depth" (member "queue" r));
  ignore (member "flows" (member "cache" r));
  match member "shedding" (member "memory" r) with
  | J.Bool false -> ()
  | other -> Alcotest.failf "shedding: %s" (J.to_string other)

(* ------------------------------------------------------------------ *)
(* load shedding under memory pressure *)

let test_memory_watermark () =
  (* a 1 MB watermark is below any live OCaml heap, so every work
     request sheds and refuses; control verbs keep answering *)
  let config = { Sv.default_config with mem_watermark_mb = 1 } in
  let svc = Sv.create ~config () in
  let reply = handle1 svc (request ~verb:"op" ~deck ()) in
  Alcotest.(check string) "busy under pressure" "busy" (error_code reply);
  (match member "retry_after_ms" (member "error" reply) with
  | J.Num _ -> ()
  | other -> Alcotest.failf "retry hint: %s" (J.to_string other));
  let stats = Sv.stats_json svc in
  (match member "rejected_memory" (member "memory" stats) with
  | J.Num n when n >= 1.0 -> ()
  | other -> Alcotest.failf "rejected_memory: %s" (J.to_string other));
  (* liveness endpoints still answer, and report the degradation *)
  let health = handle1 svc {|{"verb": "health"}|} in
  Alcotest.(check string) "health served" "response" (msg_type health);
  Alcotest.(check string)
    "degraded" {|"degraded"|}
    (J.to_string (member "status" (member "result" health)));
  match member "shedding" (member "memory" (member "result" health)) with
  | J.Bool true -> ()
  | other -> Alcotest.failf "shedding flag: %s" (J.to_string other)

(* ------------------------------------------------------------------ *)
(* constant-time auth compare *)

let test_auth_equal_const () =
  let module A = Sn_server.Auth in
  Alcotest.(check bool) "equal" true (A.equal_const "s3cret" "s3cret");
  Alcotest.(check bool) "case differs" false (A.equal_const "s3cret" "s3creT");
  Alcotest.(check bool) "prefix" false (A.equal_const "s3cret" "s3c");
  Alcotest.(check bool) "longer" false (A.equal_const "s3cret" "s3cretx");
  Alcotest.(check bool) "empty given" false (A.equal_const "s3cret" "");
  Alcotest.(check bool)
    "no token configured is not a free pass" false (A.equal_const "" "")

(* ------------------------------------------------------------------ *)
(* warmup journal *)

let test_journal_roundtrip () =
  let module Jr = Sn_server.Journal in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "snoise-journal-%d.bin" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let j = Jr.open_ ~path in
      let e1 = { Jr.text = "deck one\n.end\n"; overrides = [ ("r1", 2.0e3) ] } in
      let e2 = { Jr.text = "deck two\n.end\n"; overrides = [] } in
      Jr.append j e1;
      Jr.append j e2;
      Alcotest.(check int) "recorded" 2 (Jr.recorded j);
      (match Jr.replay ~path with
      | [ a; b ] ->
        Alcotest.(check string) "first text" e1.Jr.text a.Jr.text;
        Alcotest.(check (list (pair string (float 0.0))))
          "first overrides" e1.Jr.overrides a.Jr.overrides;
        Alcotest.(check string) "second text" e2.Jr.text b.Jr.text
      | l -> Alcotest.failf "replayed %d entries" (List.length l));
      (* a truncated tail (death mid-append) just shortens the replay *)
      let size = (Unix.stat path).Unix.st_size in
      Unix.truncate path (size - 3);
      (match Jr.replay ~path with
      | [ a ] -> Alcotest.(check string) "first survives" e1.Jr.text a.Jr.text
      | l -> Alcotest.failf "after truncation: %d entries" (List.length l));
      (* a flipped byte in the first record empties the replay — the
         digest refuses to feed Marshal damaged bytes *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.lseek fd 50 Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      Alcotest.(check int)
        "corrupt record is a miss" 0
        (List.length (Jr.replay ~path));
      (* a missing file is an empty replay, not an error *)
      Alcotest.(check int)
        "missing file" 0
        (List.length (Jr.replay ~path:(path ^ ".nope"))))

let test_warm_restart () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "snoise-warm-%d.journal" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let config = { Sv.default_config with warmup_journal = Some path } in
      let first = Sv.create ~config () in
      ignore (handle1 first (request ~verb:"op" ~deck ()));
      ignore (handle1 first (request ~id:2 ~verb:"op" ~deck ()));
      (* a "restarted" worker: fresh state, same journal *)
      let second = Sv.create ~config () in
      Alcotest.(check (pair int int))
        "one plan replayed, none failed" (1, 0)
        (Sv.warm_from_journal second);
      let reply = handle1 second (request ~verb:"op" ~deck ()) in
      Alcotest.(check string)
        "first request after restart is already warm" {|"hit"|}
        (J.to_string (plan_note reply));
      (* the replay is visible in stats *)
      match member "journal" (Sv.stats_json second) with
      | J.Obj _ as j -> (
        match member "replayed" j with
        | J.Num 1.0 -> ()
        | other -> Alcotest.failf "replayed: %s" (J.to_string other))
      | other -> Alcotest.failf "journal stats: %s" (J.to_string other))

(* ------------------------------------------------------------------ *)
(* one drain over every queued verb *)

let test_mixed_verb_drain () =
  let ac id params = request ~id ~verb:"ac" ~deck ~params () in
  let lines =
    [
      request ~id:1 ~verb:"op" ~deck ();
      ac 2 {|{"freqs": [1e6, 2e6], "nodes": ["out"]}|};
      request ~id:3 ~verb:"tran" ~deck ~params:{|{"tstop": 1e-6, "dt": 1e-7}|}
        ();
      request ~id:4 ~verb:"noise" ~deck
        ~params:{|{"freqs": [1e3, 1e6], "output": "out"}|} ();
      (* same plan and nodes as request 2: coalesces with it *)
      ac 5 {|{"freqs": [3e6], "nodes": ["out"]}|};
      request ~id:6 ~verb:"lint" ~deck ();
      request ~id:7 ~verb:"verify" ~deck ();
      (* no "nodes": refused before any dispatch *)
      ac 8 {|{"freqs": [1e6]}|};
    ]
  in
  let svc = Sv.create () in
  let batch k =
    match member k (member "batch" (Sv.stats_json svc)) with
    | J.Num n -> int_of_float n
    | other -> Alcotest.failf "batch.%s: %s" k (J.to_string other)
  in
  let dispatches0 = batch "dispatches" in
  let coalesced0 = batch "coalesced_requests" in
  let client i = 1 + (i mod 2) in
  List.iteri
    (fun i line ->
      match Sv.submit svc ~client:(client i) line with
      | `Queued -> ()
      | _ -> Alcotest.failf "request %d not queued" (i + 1))
    lines;
  let replies = Sv.drain svc in
  Alcotest.(check (list string))
    "replies in submission order"
    (List.init (List.length lines) (fun i -> string_of_int (i + 1)))
    (List.map (fun (_, r) -> J.to_string (member "id" r)) replies);
  Alcotest.(check (list int))
    "each reply addressed to its client"
    (List.mapi (fun i _ -> client i) lines)
    (List.map fst replies);
  let payload r =
    J.to_string
      (match J.member "result" r with Some v -> v | None -> member "error" r)
  in
  List.iteri
    (fun i ((_, mixed), line) ->
      let alone = handle1 (Sv.create ()) line in
      (* alone on a fresh service, a solving verb finds no cached bias *)
      if
        List.mem (J.member "verb" alone)
          [ Some (J.Str "op"); Some (J.Str "ac") ]
      then
        Alcotest.(check string)
          (Printf.sprintf "request %d bias cold alone" (i + 1))
          {|"miss"|}
          (J.to_string (member "bias" (member "served" alone)));
      Alcotest.(check string) (Printf.sprintf "request %d reply type" (i + 1))
        (msg_type alone) (msg_type mixed);
      Alcotest.(check string)
        (Printf.sprintf "request %d byte-identical to serving it alone" (i + 1))
        (payload alone) (payload mixed))
    (List.combine replies lines);
  Alcotest.(check int) "six dispatches" (dispatches0 + 6) (batch "dispatches");
  Alcotest.(check int) "one coalesced request" (coalesced0 + 1)
    (batch "coalesced_requests");
  (* reduced and exact requests on one deck, interleaved in one drain:
     each request's configuration travels with it alone *)
  let on_ladder id verb ?overrides params =
    Printf.sprintf {|{"id": %d, "verb": %S, "deck": %s, "params": %s%s}|} id
      verb
      (J.to_string (J.Str ladder_deck))
      params
      (match overrides with
      | None -> ""
      | Some ov -> Printf.sprintf {|, "overrides": %s|} ov)
  in
  let sweep = {|{"freqs": [1e6, 1e8, 1e9], "nodes": ["out"]}|} in
  let order = {|{"reduce_order": 4}|} and tol = {|{"reduce_tol": 1e-8}|} in
  let lines =
    [
      on_ladder 1 "ac" sweep;
      on_ladder 2 "ac" ~overrides:order sweep;
      on_ladder 3 "op" ~overrides:tol "{}";
      on_ladder 4 "noise" ~overrides:order
        {|{"freqs": [1e6, 1e8], "output": "out"}|};
      on_ladder 5 "op" "{}";
      on_ladder 6 "verify" ~overrides:tol "{}";
      on_ladder 7 "ac" ~overrides:tol sweep;
      on_ladder 8 "verify" "{}";
    ]
  in
  let svc = Sv.create () in
  List.iter
    (fun line ->
      match Sv.submit svc ~client:1 line with
      | `Queued -> ()
      | _ -> Alcotest.failf "not queued: %s" line)
    lines;
  List.iteri
    (fun i ((_, mixed), line) ->
      let alone = handle1 (Sv.create ()) line in
      Alcotest.(check string)
        (Printf.sprintf "ladder request %d served" (i + 1))
        "response" (msg_type mixed);
      Alcotest.(check string)
        (Printf.sprintf "ladder request %d byte-identical to serving it alone"
           (i + 1))
        (payload alone) (payload mixed))
    (List.combine (Sv.drain svc) lines);
  (* one reduction per distinct reduced plan: order 4 and tol 1e-8 *)
  Alcotest.(check string) "two reductions in the drain" "2"
    (J.to_string
       (member "reductions" (member "reduction" (Sv.stats_json svc))))

(* ------------------------------------------------------------------ *)
(* disconnect shedding at the dispatch boundary *)

let test_drain_sheds_dead_clients () =
  let svc = Sv.create () in
  List.iter
    (fun (client, id) ->
      match Sv.submit svc ~client (request ~id ~verb:"op" ~deck ()) with
      | `Queued -> ()
      | _ -> Alcotest.fail "expected queued")
    [ (1, 1); (2, 2) ];
  (* client 2 hung up before dispatch: its work is dropped unrun *)
  let replies = Sv.drain ~alive:(fun client -> client = 1) svc in
  Alcotest.(check int) "only the live client served" 1 (List.length replies);
  Alcotest.(check int) "addressed to client 1" 1 (fst (List.hd replies));
  match member "disconnected" (member "cancel" (Sv.stats_json svc)) with
  | J.Num 1.0 -> ()
  | other -> Alcotest.failf "disconnected: %s" (J.to_string other)


(* ------------------------------------------------------------------ *)
(* a real socket session against a threaded server *)

let test_socket_session () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "snoise-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let server = Srv.create ~socket:path () in
  let th = Thread.create (fun () -> Srv.serve server) () in
  Fun.protect
    ~finally:(fun () ->
      Srv.stop server;
      Thread.join th)
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let send lines =
        let s = String.concat "\n" lines ^ "\n" in
        ignore (Unix.write_substring fd s 0 (String.length s))
      in
      let recv () =
        match In_channel.input_line ic with
        | Some l -> (
          match J.parse l with
          | Ok j -> j
          | Error e -> Alcotest.failf "bad reply %S: %s" l e)
        | None -> Alcotest.fail "server closed early"
      in
      send
        [
          {|{"id": 1, "verb": "ping"}|};
          "not json at all";
          request ~id:2 ~verb:"op" ~deck ();
        ];
      let ping = recv () in
      Alcotest.(check string) "ping" "response" (msg_type ping);
      let bad = recv () in
      Alcotest.(check string)
        "malformed answered, not disconnected" "parse-error" (error_code bad);
      let op = recv () in
      Alcotest.(check string) "op served" "response" (msg_type op);
      (* warm repeat over the same connection: plan cache hit *)
      send [ request ~id:3 ~verb:"op" ~deck () ];
      let warm = recv () in
      Alcotest.(check string)
        "warm repeat hits" {|"hit"|}
        (J.to_string (plan_note warm));
      (* clean shutdown via the protocol *)
      send [ {|{"id": 4, "verb": "shutdown"}|} ];
      let bye = recv () in
      Alcotest.(check string) "shutdown acked" "response" (msg_type bye);
      Unix.close fd;
      Thread.join th;
      Alcotest.(check bool)
        "socket file removed" false (Sys.file_exists path))

(* TCP endpoint with --auth-token: unauthorized until the shared
   secret is presented; the Unix socket never needs it *)
let test_tcp_auth_session () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "snoise-test-auth-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let server =
    Srv.create ~socket:path ~tcp:("127.0.0.1", 0) ~auth_token:"hunter2" ()
  in
  let port =
    match Srv.tcp_port server with
    | Some p -> p
    | None -> Alcotest.fail "no TCP port bound"
  in
  let th = Thread.create (fun () -> Srv.serve server) () in
  Fun.protect
    ~finally:(fun () ->
      Srv.stop server;
      Thread.join th)
    (fun () ->
      let session fd =
        let ic = Unix.in_channel_of_descr fd in
        let send line =
          let s = line ^ "\n" in
          ignore (Unix.write_substring fd s 0 (String.length s))
        in
        let recv () =
          match In_channel.input_line ic with
          | Some l -> (
            match J.parse l with
            | Ok j -> j
            | Error e -> Alcotest.failf "bad reply %S: %s" l e)
          | None -> Alcotest.fail "server closed early"
        in
        (send, recv)
      in
      let tcp = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect tcp (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let send, recv = session tcp in
      (* no token: stable unauthorized error, connection stays up *)
      send {|{"id": 1, "verb": "ping"}|};
      let denied = recv () in
      Alcotest.(check string) "unauthorized" "unauthorized" (error_code denied);
      Alcotest.(check string) "id echoed" "1" (J.to_string (member "id" denied));
      (* wrong token: still denied, still connected *)
      send {|{"id": 2, "verb": "ping", "auth_token": "wrong"}|};
      Alcotest.(check string)
        "wrong token denied" "unauthorized"
        (error_code (recv ()));
      (* the shared secret authenticates the connection... *)
      send {|{"id": 3, "verb": "ping", "auth_token": "hunter2"}|};
      Alcotest.(check string) "token accepted" "response" (msg_type (recv ()));
      (* ...and later lines need no token *)
      send {|{"id": 4, "verb": "ping"}|};
      Alcotest.(check string)
        "connection stays authenticated" "response"
        (msg_type (recv ()));
      Unix.close tcp;
      (* the Unix socket is exempt *)
      let ux = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect ux (Unix.ADDR_UNIX path);
      let send, recv = session ux in
      send {|{"id": 5, "verb": "ping"}|};
      Alcotest.(check string)
        "unix socket needs no token" "response"
        (msg_type (recv ()));
      Unix.close ux)

let suites =
  [
    ( "server-json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "special values" `Quick test_json_specials;
        Alcotest.test_case "control-character escapes" `Quick test_json_escapes;
        Alcotest.test_case "parse errors" `Quick test_json_errors;
        QCheck_alcotest.to_alcotest prop_json_fuzz;
      ] );
    ("json.float", [ QCheck_alcotest.to_alcotest prop_float_printer ]);
    ( "server-protocol",
      [
        Alcotest.test_case "request parsing" `Quick test_protocol_parse;
        Alcotest.test_case "cache keys" `Quick test_cache_key;
      ] );
    ( "server-service",
      [
        Alcotest.test_case "malformed requests" `Quick test_malformed_requests;
        Alcotest.test_case "refusal messages" `Quick test_refusal_messages;
        Alcotest.test_case "lint refusal" `Quick test_lint_refused;
        Alcotest.test_case "plan cache eviction" `Quick
          test_plan_cache_eviction;
        Alcotest.test_case "flow layer bounded" `Quick test_flow_layer_bounded;
        Alcotest.test_case "macro layer bounded" `Quick
          test_macro_layer_bounded;
        Alcotest.test_case "plan cache lifecycle" `Quick
          test_plan_cache_lifecycle;
        Alcotest.test_case "batch identity (jobs 1)" `Quick
          (batch_vs_individual 1);
        Alcotest.test_case "batch identity (jobs 4)" `Quick
          (batch_vs_individual 4);
        Alcotest.test_case "batch errors reach all members" `Quick
          test_batch_errors_all_members;
        Alcotest.test_case "quota and backpressure" `Quick
          test_quota_and_backpressure;
        Alcotest.test_case "stats shape" `Quick test_stats_shape;
        Alcotest.test_case "reduce overrides" `Quick test_reduce_overrides;
        Alcotest.test_case "verify verb" `Quick test_verify_verb;
        Alcotest.test_case "verify honours reduce overrides" `Quick
          test_verify_reduce_override;
        Alcotest.test_case "reduction stats per service" `Quick
          test_reduction_stats_per_service;
        Alcotest.test_case "spur follows the service options" `Quick
          test_spur_follows_options;
        Alcotest.test_case "spur grid range" `Quick test_spur_grid_range;
        Alcotest.test_case "health verb" `Quick test_health_verb;
        Alcotest.test_case "deadline exceeded (jobs 1)" `Quick
          (deadline_exceeded_at 1);
        Alcotest.test_case "deadline exceeded (jobs 4)" `Quick
          (deadline_exceeded_at 4);
        Alcotest.test_case "deadline validation" `Quick
          test_deadline_validation;
        Alcotest.test_case "mixed deadlines do not coalesce" `Quick
          test_deadline_no_coalesce;
        Alcotest.test_case "memory watermark sheds" `Quick
          test_memory_watermark;
        Alcotest.test_case "auth constant-time compare" `Quick
          test_auth_equal_const;
        Alcotest.test_case "journal round-trip" `Quick test_journal_roundtrip;
        Alcotest.test_case "warm restart from journal" `Quick
          test_warm_restart;
        Alcotest.test_case "mixed-verb drain" `Quick test_mixed_verb_drain;
        Alcotest.test_case "drain sheds dead clients" `Quick
          test_drain_sheds_dead_clients;
      ] );
    ( "server-socket",
      [
        Alcotest.test_case "session" `Quick test_socket_session;
        Alcotest.test_case "tcp auth" `Quick test_tcp_auth_session;
      ] );
  ]
