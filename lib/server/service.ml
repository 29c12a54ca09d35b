module J = Json
module P = Protocol
module C = Sn_circuit
module E = Sn_engine
module A = Sn_analysis
module N = Sn_numerics
module Flow = Snoise.Flow

let log_src = Logs.Src.create "sn.server" ~doc:"snoise serving core"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  max_queue : int;
  client_quota : int;
  max_decks : int;
  tran_max_points : int;
  max_flows : int;
  mem_watermark_mb : int;
  warmup_journal : string option;
}

let default_config =
  { max_queue = 256; client_quota = 32; max_decks = 128;
    tran_max_points = 100_000; max_flows = 8; mem_watermark_mb = 4096;
    warmup_journal = None }

type pending = { seq : int; client : int; arrived : float; req : P.request }

type t = {
  config : config;
  options : Flow.options;  (* spur flows; the pool of every dispatch *)
  cache : Plan_cache.t;
  lock : Mutex.t;
  queue : pending Queue.t;
  per_client : (int, int) Hashtbl.t;
  mutable seq : int;
  started : float;
  (* counters (all under [lock]) *)
  verb_counts : (string, int) Hashtbl.t;
  verb_ms : (string, float) Hashtbl.t;
  mutable requests_total : int;
  mutable responses_total : int;
  mutable errors_total : int;
  mutable rejected_busy : int;
  mutable rejected_quota : int;
  mutable max_depth : int;
  mutable dispatches : int;
  mutable coalesced : int;
  mutable svc_total_ms : float;
  mutable svc_max_ms : float;
  mutable svc_last_ms : float;
  (* reductions this service ran (plan compiles and spur flows) *)
  mutable reductions : int;
  mutable last_reduction : Snoise.Reduced_model.stats option;
  (* resilience layer (all under [lock] unless noted) *)
  restarts : int;  (* set by the supervisor via SNOISE_RESTARTS *)
  mutable deadline_exceeded : int;
  mutable disconnected : int;
  mutable shed_events : int;
  mutable shed_plans : int;
  mutable rejected_memory : int;
  mutable last_shed : float;
  journal : Journal.t option;
  journaled : (string, unit) Hashtbl.t;  (* keys already appended *)
  mutable journal_replayed : int;
  mutable journaling : bool;  (* off while warming, to avoid echo *)
}

let create ?(config = default_config) ?(options = Flow.default_options) () =
  {
    config;
    options;
    cache =
      Plan_cache.create ~max_decks:config.max_decks
        ~max_flows:config.max_flows;
    lock = Mutex.create ();
    queue = Queue.create ();
    per_client = Hashtbl.create 16;
    seq = 0;
    started = Unix.gettimeofday ();
    verb_counts = Hashtbl.create 16;
    verb_ms = Hashtbl.create 16;
    requests_total = 0;
    responses_total = 0;
    errors_total = 0;
    rejected_busy = 0;
    rejected_quota = 0;
    max_depth = 0;
    dispatches = 0;
    coalesced = 0;
    svc_total_ms = 0.0;
    svc_max_ms = 0.0;
    svc_last_ms = 0.0;
    reductions = 0;
    last_reduction = None;
    restarts =
      Option.value ~default:0
        (Option.bind (Sys.getenv_opt "SNOISE_RESTARTS") int_of_string_opt);
    deadline_exceeded = 0;
    disconnected = 0;
    shed_events = 0;
    shed_plans = 0;
    rejected_memory = 0;
    last_shed = 0.0;
    journal = Option.map (fun path -> Journal.open_ ~path) config.warmup_journal;
    journaled = Hashtbl.create 16;
    journal_replayed = 0;
    journaling = true;
  }

let cache t = t.cache

let queue_depth t = Mutex.protect t.lock (fun () -> Queue.length t.queue)

let note_reduction t = function
  | None -> ()
  | Some stats ->
    Mutex.protect t.lock (fun () ->
        t.reductions <- t.reductions + 1;
        t.last_reduction <- Some stats)

(* ------------------------------------------------------------------ *)
(* request-shape failures raised by handlers, mapped to wire errors by
   [guard_result] below — a malformed request must produce a structured
   reply, never a disconnect or a crash *)

exception Lint_errors of A.Analyzer.report

let name_hint = function
  | [] -> ""
  | cs -> Printf.sprintf " (did you mean %s?)" (String.concat ", " cs)

let guard_result ~id f =
  match f () with
  | v -> Ok v
  | exception E.Diag.Error d -> Error (P.diag_error ~id d)
  | exception Lint_errors report ->
    Error
      (P.error ~id
         ~data:[ ("lint", A.Analyzer.to_json report) ]
         P.Lint_refused "lint errors refused simulation")
  | exception P.Refused (code, m) -> Error (P.error ~id code m)
  | exception Invalid_argument m -> Error (P.error ~id P.Bad_request m)
  | exception C.Spice.Parse_error (line, msg) ->
    Error
      (P.error ~id P.Deck_unreadable
         (Printf.sprintf "SPICE parse error at line %d: %s" line msg))
  | exception C.Netlist.Invalid msgs ->
    Error (P.error ~id P.Deck_unreadable (String.concat "; " msgs))
  | exception E.Mna.Unknown_node { node; candidates } ->
    Error
      (P.error ~id P.Bad_request
         (Printf.sprintf "unknown node %S%s" node (name_hint candidates)))
  | exception E.Mna.Unknown_branch { name; candidates } ->
    Error
      (P.error ~id P.Bad_request
         (Printf.sprintf "unknown branch %S%s" name (name_hint candidates)))
  | exception Not_found ->
    Error (P.error ~id P.Bad_request "unknown name in request")
  | exception N.Cancel.Cancelled tok ->
    (* cooperative cancellation unwound the work at an iteration
       boundary; report how far it got so the client can reason about
       a retry budget *)
    Error
      (P.error ~id
         ~data:
           [
             ( "progress",
               J.Obj
                 [ ("iterations", J.Num (float_of_int (N.Cancel.progress tok))) ]
             );
             ("reason", J.Str (N.Cancel.reason tok));
           ]
         P.Deadline_exceeded
         "deadline exceeded; work cancelled at an iteration boundary")
  | exception e -> Error (P.error ~id P.Internal (Printexc.to_string e))

(* re-tag a shared group error with one member's id *)
let with_id json id =
  match json with
  | J.Obj members ->
    J.Obj
      (List.map
         (fun (k, v) -> if String.equal k "id" then (k, id) else (k, v))
         members)
  | other -> other

(* ------------------------------------------------------------------ *)
(* deck resolution and compilation *)

let source_text = function
  | P.Inline s -> s
  | P.Path p -> (
    try In_channel.with_open_bin p In_channel.input_all
    with Sys_error m -> raise (P.Refused (P.Deck_unreadable, m)))

let source_name = function P.Inline _ -> "<inline>" | P.Path p -> p

let require_source (req : P.request) =
  match req.P.source with
  | Some s -> s
  | None ->
    P.bad "verb %S needs a deck (\"deck\" or \"deck_path\")"
      (P.verb_name req.P.verb)

(* a request's deck, resolved once: where it came from, its text and
   overrides, and the plan-cache key they digest to *)
type deck = {
  src : P.source;
  text : string;
  overrides : (string * float) list;
  key : string;
}

let deck_of_text src text overrides =
  { src; text; overrides; key = Plan_cache.deck_key ~text ~overrides }

let deck_of (req : P.request) =
  let src = require_source req in
  deck_of_text src (source_text src) req.P.overrides

(* reserved override keys steering server-side model-order reduction:
   they are configuration, not element values, so they are peeled off
   before apply_overrides's unknown-element check.  deck_key digests
   the raw override list, so requests differing only in reduce_*
   settings compile into distinct plan-cache entries. *)
let reduction_of_overrides overrides =
  let module R = Snoise.Reduced_model in
  let key = function
    | R.Order -> "reduce_order"
    | R.Tol -> "reduce_tol"
    | R.S0 -> "reduce_s0"
  in
  let is_knob k = List.mem k (List.map key [ R.Order; R.Tol; R.S0 ]) in
  let knobs, elements =
    List.partition_map
      (fun (k, v) ->
        let k' = String.lowercase_ascii k in
        if is_knob k' then Either.Left (k', v) else Either.Right (k, v))
      overrides
  in
  let value knob = List.assoc_opt (key knob) (List.rev knobs) in
  match
    R.config_of_knobs
      ~name:(fun knob -> Printf.sprintf "%S" (key knob))
      ?order:(value R.Order) ?tol:(value R.Tol) ?s0_hz:(value R.S0) ()
  with
  | Ok config -> (elements, config)
  | Error m -> P.bad "override %s" m

let apply_overrides nl overrides =
  if overrides = [] then nl
  else begin
    let wanted = Hashtbl.create 8 in
    List.iter
      (fun (k, v) -> Hashtbl.replace wanted (String.lowercase_ascii k) v)
      overrides;
    let used = Hashtbl.create 8 in
    let subst e =
      let name = String.lowercase_ascii (C.Element.name e) in
      match Hashtbl.find_opt wanted name with
      | None -> e
      | Some v ->
        Hashtbl.replace used name ();
        (match e with
        | C.Element.Resistor r -> C.Element.Resistor { r with ohms = v }
        | C.Element.Capacitor c -> C.Element.Capacitor { c with farads = v }
        | C.Element.Inductor l -> C.Element.Inductor { l with henries = v }
        | C.Element.Vsource s ->
          C.Element.Vsource { s with wave = C.Waveform.dc v }
        | C.Element.Isource s ->
          C.Element.Isource { s with wave = C.Waveform.dc v }
        | C.Element.Vccs g -> C.Element.Vccs { g with gm = v }
        | C.Element.Vcvs g -> C.Element.Vcvs { g with gain = v }
        | C.Element.Mosfet _ | C.Element.Varactor _ ->
          P.bad "override %S: only R/C/L/V/I/G/E values can be overridden"
            name)
    in
    let elements = List.map subst (C.Netlist.elements nl) in
    List.iter
      (fun (k, _) ->
        if not (Hashtbl.mem used (String.lowercase_ascii k)) then
          P.bad "override %S names no deck element" k)
      overrides;
    C.Netlist.create ~title:(C.Netlist.title nl)
      ~pragmas:(C.Netlist.pragmas nl)
      ~directives:(C.Netlist.directives nl)
      ~locs:(C.Netlist.element_locs nl) elements
  end

(* parse (cached) and apply the element overrides: the unreduced deck
   and the reduction its reduce_* overrides ask for *)
let overridden_netlist t d =
  let nl =
    Plan_cache.find_netlist t.cache ~text:d.text ~parse:(fun s ->
        C.Spice.of_string ~file:(source_name d.src) s)
  in
  let element_overrides, reduce = reduction_of_overrides d.overrides in
  (apply_overrides nl element_overrides, reduce)

(* the deck as served: overridden, then reduced; the compiled result is
   lint-gated with a wire-structured refusal and cached under the
   content key *)
let netlist_of t d =
  match overridden_netlist t d with
  | nl, None -> (nl, None)
  | nl, Some config -> Snoise.Reduced_model.reduce_deck_certified ~config nl

let journal_compile t d =
  match t.journal with
  | None -> ()
  | Some j ->
    let fresh =
      Mutex.protect t.lock (fun () ->
          if t.journaling && not (Hashtbl.mem t.journaled d.key) then begin
            Hashtbl.replace t.journaled d.key ();
            true
          end
          else false)
    in
    if fresh then
      Journal.append j { Journal.text = d.text; overrides = d.overrides }

let compiled_of t d =
  let cp, note =
    Plan_cache.find_compiled t.cache ~key:d.key ~compile:(fun () ->
        let nl, reduced = netlist_of t d in
        note_reduction t
          (Option.bind reduced (fun (m, _) -> Snoise.Reduced_model.stats m));
        let report = A.Analyzer.analyze nl in
        if A.Analyzer.errors report <> [] then raise (Lint_errors report);
        {
          Plan_cache.cp_plan = Flow.compile_deck ~lint:false nl;
          cp_reduced = Option.map fst reduced;
          cp_cert = Option.bind reduced snd;
        })
  in
  if note = P.Miss then journal_compile t d;
  (cp.Plan_cache.cp_plan, note)

(* ------------------------------------------------------------------ *)
(* result rendering *)

let num i = J.Num (float_of_int i)

let cx_json (c : Complex.t) = J.Arr [ J.Num c.Complex.re; J.Num c.Complex.im ]

let float_arr a = J.Arr (Array.to_list (Array.map (fun v -> J.Num v) a))

(* a sweep reply's ["points"]: one object per requested frequency,
   ["freq"] first, the rest looked up in the group's shared solve *)
let points_json freqs members =
  J.Arr
    (Array.to_list
       (Array.map (fun freq -> J.Obj (("freq", J.Num freq) :: members freq))
          freqs))

let by_freq n points =
  let table = Hashtbl.create n in
  List.iter (fun (freq, v) -> Hashtbl.replace table freq v) points;
  Hashtbl.find table

(* ------------------------------------------------------------------ *)
(* batching: one signature per sweep-shaped request, so [drain] can
   coalesce same-plan same-node requests into one pool dispatch *)

type sweep_sig = {
  sg_deck : deck;
  sg_columns : string list;  (* AC probe nodes, or the noise output *)
  sg_freqs : float array;
  sg_contributions : bool;  (* noise only: render per-element PSDs *)
  sg_deadline_ms : float option;  (* only equal deadlines coalesce *)
}

(* what a sweep-shaped verb adds to the shared batching path *)
type sweep_verb = {
  columns : (string * J.t) list -> string list * bool;
      (* from the params: the AC probe nodes or the noise output, and
         whether per-element PSDs are rendered *)
  solve :
    E.Pool.t -> Flow.compiled -> sweep_sig -> float array -> sweep_sig -> J.t;
      (* one dispatch on the pool of the leader's plan over the union
         of the group's frequencies, returning each member's renderer *)
}

let sweep_signature sv (req : P.request) =
  let m = P.params_members req.P.params in
  let sg_columns, sg_contributions = sv.columns m in
  let sg_deck = deck_of req in
  let sg_freqs = P.freqs_of_params m in
  { sg_deck; sg_columns; sg_freqs; sg_contributions;
    sg_deadline_ms = req.P.deadline_ms }

let compatible a b =
  String.equal a.sg_deck.key b.sg_deck.key
  && List.length a.sg_columns = List.length b.sg_columns
  && List.for_all2 String.equal a.sg_columns b.sg_columns
  (* a bounded and an unbounded request must not share a fate, and
     mixed deadlines would cancel the whole group at the earliest one *)
  && Option.equal Float.equal a.sg_deadline_ms b.sg_deadline_ms

let union_freqs members =
  List.concat_map (fun (_, sg) -> Array.to_list sg.sg_freqs) members
  |> List.sort_uniq compare
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* per-verb handlers.  A verb that runs alone returns (result, plan
   note, bias note); a sweep verb is a [sweep_verb]. *)

let bias_note compiled =
  if Flow.compiled_bias_cached compiled then P.Hit else P.Miss

let run_op t (req : P.request) =
  let compiled, plan_note = compiled_of t (deck_of req) in
  let bias_note = bias_note compiled in
  let dc = Flow.compiled_bias compiled in
  let m = P.params_members req.P.params in
  let nodes =
    match P.opt_str_list m "nodes" with
    | Some ns -> ns
    | None ->
      Array.to_list (E.Mna.node_names (Flow.compiled_mna compiled))
      |> List.sort String.compare
  in
  let voltages = List.map (fun n -> (n, J.Num (E.Dc.voltage dc n))) nodes in
  (J.Obj [ ("voltages", J.Obj voltages) ], plan_note, bias_note)

let run_tran t (req : P.request) =
  let compiled, plan_note = compiled_of t (deck_of req) in
  let m = P.params_members req.P.params in
  let tstop = P.required P.number m "tstop"
  and dt = P.required P.number m "dt" in
  if tstop <= 0.0 || dt <= 0.0 then P.bad "\"tstop\" and \"dt\" must be > 0";
  let n_points = int_of_float (Float.round (tstop /. dt)) + 1 in
  if n_points > t.config.tran_max_points then
    P.bad
      "%d points exceed the service limit of %d (raise \"dt\" or split \
       the window)"
      n_points t.config.tran_max_points;
  let method_ =
    match Option.value (P.param P.str m "method") ~default:"trapezoidal" with
    | "trapezoidal" | "trap" -> E.Tran.Trapezoidal
    | "backward-euler" | "be" -> E.Tran.Backward_euler
    | other ->
      P.bad "unknown method %S (trapezoidal or backward-euler)" other
  in
  let options =
    { E.Tran.default_options with
      E.Tran.method_ = method_;
      record = P.opt_str_list m "nodes" }
  in
  let ds =
    E.Tran.simulate ~options ~tstop ~dt (Flow.compiled_netlist compiled)
  in
  let waves =
    Array.to_list
      (Array.mapi
         (fun k name -> (name, float_arr ds.E.Tran.data.(k)))
         ds.E.Tran.names)
  in
  ( J.Obj
      [
        ("times", float_arr ds.E.Tran.times);
        ("waves", J.Obj waves);
        ( "truncated",
          Option.fold ~none:J.Null ~some:E.Diag.to_json ds.E.Tran.truncated );
      ],
    plan_note,
    P.Not_applicable )

let run_lint t (req : P.request) =
  let nl, _ = netlist_of t (deck_of req) in
  let m = P.params_members req.P.params in
  let strict = Option.value (P.param P.boolean m "strict") ~default:false in
  let strings k = Option.value (P.opt_str_list m k) ~default:[] in
  let config =
    A.Analyzer.configure ~disable:(strings "disable") ~ignore:(strings "ignore")
  in
  let report = A.Analyzer.analyze ~config nl in
  let failing =
    A.Analyzer.errors report <> []
    || (strict && A.Analyzer.warnings report <> [])
  in
  ( J.Obj
      [
        ("report", A.Analyzer.to_json report);
        ("failing", J.Bool failing);
      ],
    P.Not_applicable,
    P.Not_applicable )

(* the verify verb: three modes, picked by the request shape.
   A deck source runs the full numerical pre-flight; params.cache_dir
   re-judges an on-disk tile-cache directory from certificates alone;
   neither re-verifies the resident plan cache.  All three are
   hash-or-LDL^T work — never an extraction, solve or CG iteration. *)

let run_verify t (req : P.request) =
  let m = P.params_members req.P.params in
  let doc =
    match (P.param P.str m "cache_dir", req.P.source) with
    | Some _, Some _ -> P.bad "give a deck or \"cache_dir\", not both"
    | Some dir, None ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        P.bad "cache_dir %S is not a directory" dir;
      Snoise.Report.cache_verification_json ~dir
        (Sn_substrate.Cache.verify_dir (Sn_substrate.Cache.create ~dir))
    | None, Some _ ->
      (* the unreduced deck: the pre-flight dry-runs the requested
         reduction itself to judge its certificate *)
      let nl, reduce = overridden_netlist t (deck_of req) in
      Snoise.Report.verify_json (Flow.preflight ?reduce nl)
    | None, None ->
      let pv = Plan_cache.verify_plans t.cache in
      J.Obj
        [
          ("schema_version", num A.Analyzer.schema_version);
          ("mode", J.Str "plans");
          ("plans", num pv.Plan_cache.pv_plans);
          ("exact", num pv.Plan_cache.pv_exact);
          ("certified", num pv.Plan_cache.pv_certified);
          ("uncertified", num pv.Plan_cache.pv_uncertified);
          ("bad", num pv.Plan_cache.pv_bad);
          ("failing", J.Bool (pv.Plan_cache.pv_bad > 0));
        ]
  in
  (doc, P.Not_applicable, P.Not_applicable)

let run_extract t (req : P.request) =
  let text = source_text (require_source req) in
  let macro, note =
    Plan_cache.find_macro t.cache ~text ~extract:(fun () ->
        let layout = Sn_layout.Layout_io.of_string text in
        Sn_substrate.Extractor.extract_from_layout ?pool:t.options.Flow.pool
          ~tech:Sn_tech.Tech.imec018 layout)
  in
  let resistors =
    List.map
      (fun (a, b, r) -> J.Arr [ J.Str a; J.Str b; J.Num r ])
      (Sn_substrate.Macromodel.to_resistors macro)
  in
  ( J.Obj
      [
        ( "ports",
          J.Arr
            (List.map (fun p -> J.Str p)
               (Sn_substrate.Macromodel.port_names macro)) );
        ("resistors", J.Arr resistors);
      ],
    note,
    P.Not_applicable )

(* largest lateral grid a served spur may build: the memory watermark
   is checked at admission, before the grid is allocated, so an
   unbounded size could take the worker down *)
let max_spur_grid = 512

let run_spur t (req : P.request) =
  let m = P.params_members req.P.params in
  let f_noise = P.required P.number m "f_noise" in
  let vtune = Option.value (P.param P.number m "vtune") ~default:Flow.default_vtune in
  let p_noise_dbm =
    Option.value (P.param P.number m "p_noise_dbm") ~default:Flow.paper_noise_dbm
  in
  let grid_size name =
    let n = Option.value (P.param P.integer m name) ~default:48 in
    if n < 4 || n > max_spur_grid then
      P.bad "%S must be in 4..%d" name max_spur_grid;
    n
  in
  let nx = grid_size "nx" and ny = grid_size "ny" in
  let flow, note =
    Plan_cache.find_flow t.cache ~vtune ~nx ~ny ~build:(fun () ->
        let grid =
          { t.options.Flow.grid with Sn_substrate.Grid.nx = nx; ny = ny }
        in
        let options = { t.options with Flow.grid = grid } in
        let f = Flow.build_vco ~options Sn_testchip.Vco_chip.default ~vtune in
        note_reduction t (Flow.vco_reduction f);
        f)
  in
  let h = Flow.vco_transfers flow ~f_noise:[| f_noise |] in
  let spur = Flow.vco_spur flow ~h ~p_noise_dbm ~f_noise in
  let module I = Sn_rf.Impact in
  ( J.Obj
      [
        ("carrier_hz", J.Num (Flow.vco_carrier_freq flow));
        ("amplitude_v", J.Num (Flow.vco_amplitude flow));
        ("f_noise", J.Num spur.I.f_noise);
        ("lower_dbm", J.Num spur.I.lower_dbm);
        ("upper_dbm", J.Num spur.I.upper_dbm);
        ( "contributions",
          J.Arr
            (List.map
               (fun (c : I.contribution) ->
                 J.Obj
                   [
                     ("entry", J.Str c.I.entry_label);
                     ("h_mag", J.Num c.I.h_mag);
                     ("spur_dbm", J.Num c.I.spur_dbm);
                   ])
               spur.I.contributions) );
      ],
    note,
    P.Not_applicable )

let ac_sweep =
  {
    columns =
      (fun m ->
        match P.opt_str_list m "nodes" with
        | Some (_ :: _ as ns) -> (ns, false)
        | Some [] -> P.bad "\"nodes\" must not be empty"
        | None -> P.bad "missing required param \"nodes\"");
    solve =
      (fun pool compiled leader union ->
        let at =
          E.Ac.sweep_plan ~pool
            (Flow.compiled_ac_plan compiled)
            ~freqs:union ~nodes:leader.sg_columns
          |> Array.to_list
          |> List.map (fun (pt : E.Ac.sweep_point) ->
                 (pt.E.Ac.freq, pt.E.Ac.values))
          |> by_freq (Array.length union)
        in
        fun sg ->
          J.Obj
            [
              ( "points",
                points_json sg.sg_freqs (fun freq ->
                    let values = at freq in
                    [
                      ( "v",
                        J.Obj
                          (List.map
                             (fun n -> (n, cx_json (List.assoc n values)))
                             sg.sg_columns) );
                    ]) );
            ]);
  }

let noise_sweep =
  {
    columns =
      (fun m ->
        ( [ P.required P.str m "output" ],
          Option.value (P.param P.boolean m "contributions") ~default:false ));
    solve =
      (fun pool compiled leader union ->
        let acp = Flow.compiled_ac_plan compiled in
        let dc = Flow.compiled_bias compiled in
        let output = List.hd leader.sg_columns in
        let at =
          E.Noise.analyze_plan ~pool ~dc acp ~output ~freqs:union
          |> List.map (fun (pt : E.Noise.point) -> (pt.E.Noise.freq, pt))
          |> by_freq (Array.length union)
        in
        let contribution (c : E.Noise.contribution) =
          J.Obj
            [
              ("element", J.Str c.E.Noise.element);
              ("psd", J.Num c.E.Noise.psd);
            ]
        in
        fun sg ->
          let point freq =
            let p = at freq in
            ("total_psd", J.Num p.E.Noise.total_psd)
            :: ("spot_nv", J.Num (E.Noise.spot_nv p))
            ::
            (if sg.sg_contributions then
               [
                 ( "contributions",
                   J.Arr (List.map contribution p.E.Noise.contributions) );
               ]
             else [])
          in
          let total_rms =
            if Array.length sg.sg_freqs >= 2 then
              J.Num
                (E.Noise.total_rms (Array.to_list (Array.map at sg.sg_freqs)))
            else J.Null
          in
          J.Obj
            [
              ("points", points_json sg.sg_freqs point);
              ("total_rms", total_rms);
            ]);
  }

(* ------------------------------------------------------------------ *)
(* memory watermark: Gc heap words plus the plan cache's own size
   accounting, checked at admission so the service answers [busy]
   before the OOM killer answers for us *)

let words_to_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

let heap_mb () = words_to_mb (Gc.quick_stat ()).Gc.heap_words

let mem_pressure_mb t =
  Float.max (heap_mb ()) (words_to_mb (Plan_cache.plan_words t.cache))

let over_watermark t = mem_pressure_mb t > float_of_int t.config.mem_watermark_mb

(* Shed LRU state and compact.  Rate-limited: if a shed five seconds
   ago did not get us under the watermark, another one will not either
   — go straight to backpressure instead of thrashing the compactor. *)
let try_shed t =
  let now = Unix.gettimeofday () in
  let allowed =
    Mutex.protect t.lock (fun () ->
        if now -. t.last_shed < 5.0 then false
        else begin
          t.last_shed <- now;
          t.shed_events <- t.shed_events + 1;
          true
        end)
  in
  if allowed then begin
    let resident = (Plan_cache.stats t.cache).Plan_cache.plans in
    let dropped, flows_dropped =
      Plan_cache.shed t.cache ~keep:(resident / 2)
    in
    Mutex.protect t.lock (fun () -> t.shed_plans <- t.shed_plans + dropped);
    Log.warn (fun m ->
        m "memory watermark: shed %d plan(s), %d flow(s), compacting"
          dropped flows_dropped);
    Gc.compact ()
  end

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_json t =
  let cs = Plan_cache.stats t.cache in
  let pool = E.Pool.stats (Flow.pool_of t.options) in
  let tile = Sn_substrate.Cache.resolution () in
  let verb_table table to_json =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, to_json v) :: acc) table []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  in
  let ms v = Float.round (v *. 1000.0) /. 1000.0 in
  J.Obj
    [
      ("uptime_s", J.Num (Unix.gettimeofday () -. t.started));
      ("requests", num t.requests_total);
      ("responses", num t.responses_total);
      ("errors", num t.errors_total);
      ("by_verb", J.Obj (verb_table t.verb_counts num));
      ( "queue",
        J.Obj
          [
            ("capacity", num t.config.max_queue);
            ("depth", num (queue_depth t));
            ("max_depth", num t.max_depth);
            ("client_quota", num t.config.client_quota);
            ("rejected_busy", num t.rejected_busy);
            ("rejected_quota", num t.rejected_quota);
          ] );
      ( "batch",
        J.Obj
          [
            ("dispatches", num t.dispatches);
            ("coalesced_requests", num t.coalesced);
          ] );
      ( "plan_cache",
        J.Obj
          [
            ("plans", num cs.Plan_cache.plans);
            ("certified_plans", num cs.Plan_cache.certified_plans);
            ("plan_hits", num cs.Plan_cache.plan_hits);
            ("plan_misses", num cs.Plan_cache.plan_misses);
            ("parse_hits", num cs.Plan_cache.parse_hits);
            ("parse_misses", num cs.Plan_cache.parse_misses);
            ("macro_hits", num cs.Plan_cache.macro_hits);
            ("macro_misses", num cs.Plan_cache.macro_misses);
            ("evictions", num cs.Plan_cache.evictions);
            ("plan_words", num cs.Plan_cache.plan_words);
            ("shed_plans", num t.shed_plans);
            ("flows", num cs.Plan_cache.flows);
            ("flow_capacity", num cs.Plan_cache.flow_capacity);
            ("flow_evictions", num cs.Plan_cache.flow_evictions);
            ("flow_hits", num cs.Plan_cache.flow_hits);
            ("flow_misses", num cs.Plan_cache.flow_misses);
          ] );
      ( "timings_ms",
        J.Obj
          (("total", J.Num (ms t.svc_total_ms))
           :: ("last", J.Num (ms t.svc_last_ms))
           :: ("max", J.Num (ms t.svc_max_ms))
           :: verb_table t.verb_ms (fun v -> J.Num (ms v))) );
      ( "pool",
        J.Obj
          [
            ("jobs", num pool.E.Pool.jobs);
            ("tasks_run", num pool.E.Pool.tasks_run);
            ("batches", num pool.E.Pool.batches);
            ("cpu_seconds", J.Num (E.Pool.cpu_seconds pool));
            ("wall_seconds", J.Num pool.E.Pool.wall_seconds);
            ("imbalance", J.Num (E.Pool.imbalance pool));
          ] );
      ( "tile_cache",
        let tc = Sn_substrate.Cache.counters () in
        J.Obj
          [
            ( "origin",
              J.Str
                (Sn_substrate.Cache.origin_name tile.Sn_substrate.Cache.origin)
            );
            ( "dir",
              match tile.Sn_substrate.Cache.dir with
              | Some d -> J.Str d
              | None -> J.Null );
            ("lookups", num tc.Sn_substrate.Cache.lookups);
            ("hits", num tc.Sn_substrate.Cache.hits);
            ("rejected", num tc.Sn_substrate.Cache.rejected);
            ("stores", num tc.Sn_substrate.Cache.stores);
          ] );
      ( "reduction",
        let reductions, last =
          Mutex.protect t.lock (fun () -> (t.reductions, t.last_reduction))
        in
        J.Obj
          (("reductions", num reductions)
          ::
          (match last with
          | None -> []
          | Some r ->
            let module R = Snoise.Reduced_model in
            [
              ("last_ports", num r.R.ports);
              ("last_internal", num r.R.internal);
              ("last_rank", num r.R.rank);
              ("last_order", num r.R.order);
              ("last_build_ms", J.Num (ms (r.R.build_seconds *. 1000.0)));
              ( "last_est_error",
                if Float.is_nan r.R.est_error then J.Null
                else J.Num r.R.est_error );
            ])) );
      ( "memory",
        J.Obj
          [
            ("watermark_mb", num t.config.mem_watermark_mb);
            ("heap_mb", J.Num (Float.round (heap_mb () *. 100.) /. 100.));
            ("shed_events", num t.shed_events);
            ("rejected_memory", num t.rejected_memory);
          ] );
      ( "cancel",
        J.Obj
          [
            ("deadline_exceeded", num t.deadline_exceeded);
            ("disconnected", num t.disconnected);
          ] );
      ("restarts", num t.restarts);
      ( "journal",
        match t.journal with
        | None -> J.Null
        | Some j ->
          J.Obj
            [
              ("path", J.Str (Journal.path j));
              ("recorded", num (Journal.recorded j));
              ("replayed", num t.journal_replayed);
            ] );
    ]

(* liveness + readiness in one verb: cheap enough for a tight probe
   loop, detailed enough for a load balancer to act on *)
let health_json t =
  let depth = queue_depth t in
  let pool = E.Pool.stats (Flow.pool_of t.options) in
  let cs = Plan_cache.stats t.cache in
  let pressure = mem_pressure_mb t in
  let watermark = float_of_int t.config.mem_watermark_mb in
  let shedding = pressure > watermark in
  let queue_full = depth >= t.config.max_queue in
  let status = if shedding || queue_full then "degraded" else "ok" in
  J.Obj
    [
      ("status", J.Str status);
      ("uptime_s", J.Num (Unix.gettimeofday () -. t.started));
      ( "queue",
        J.Obj [ ("depth", num depth); ("capacity", num t.config.max_queue) ] );
      ("pool", J.Obj [ ("jobs", num pool.E.Pool.jobs) ]);
      ( "cache",
        J.Obj
          [
            ("plans", num cs.Plan_cache.plans);
            ("flows", num cs.Plan_cache.flows);
          ] );
      ( "memory",
        J.Obj
          [
            ("pressure_mb", J.Num (Float.round (pressure *. 100.) /. 100.));
            ("watermark_mb", J.Num watermark);
            ("shedding", J.Bool shedding);
          ] );
      ("restarts", num t.restarts);
    ]

(* ------------------------------------------------------------------ *)
(* the verb table: everything the service knows per verb *)

type handler =
  | Control of (t -> J.t)  (* answered at submission, never queued *)
  | Alone of (t -> P.request -> J.t * P.cache_note * P.cache_note)
  | Sweep of sweep_verb  (* coalesces with compatible queued requests *)

let handler = function
  | P.Ping -> Control (fun _ -> J.Obj [])
  | P.Stats -> Control stats_json
  | P.Health -> Control health_json
  | P.Shutdown -> Control (fun _ -> J.Obj [ ("stopping", J.Bool true) ])
  | P.Op -> Alone run_op
  | P.Tran -> Alone run_tran
  | P.Lint -> Alone run_lint
  | P.Verify -> Alone run_verify
  | P.Extract -> Alone run_extract
  | P.Spur -> Alone run_spur
  | P.Ac -> Sweep ac_sweep
  | P.Noise -> Sweep noise_sweep

(* ------------------------------------------------------------------ *)
(* submit: parse, immediately answer control verbs and refusals, queue
   analysis work *)

let bump add table k v =
  Hashtbl.replace table k
    (match Hashtbl.find_opt table k with Some prev -> add prev v | None -> v)

let note_reply t reply =
  Mutex.protect t.lock (fun () ->
      match reply with
      | J.Obj (("type", J.Str "error") :: _) ->
        t.errors_total <- t.errors_total + 1
      | _ -> t.responses_total <- t.responses_total + 1);
  reply

(* admission of analysis work.  Graceful degradation first: when the
   heap (or the accounted plan cache) crosses the watermark, shed LRU
   state once, and if that was not enough answer busy instead of
   growing toward the OOM killer.  Then the queue bound and the
   per-client quota. *)
let admit t ~client (req : P.request) =
  let memory_ok =
    if not (over_watermark t) then true
    else begin
      try_shed t;
      not (over_watermark t)
    end
  in
  let arrived = Unix.gettimeofday () in
  let verdict =
    Mutex.protect t.lock (fun () ->
        let depth = Queue.length t.queue in
        let mine =
          Option.value (Hashtbl.find_opt t.per_client client) ~default:0
        in
        if not memory_ok then begin
          t.rejected_memory <- t.rejected_memory + 1;
          t.rejected_busy <- t.rejected_busy + 1;
          `Memory
        end
        else if depth >= t.config.max_queue then begin
          t.rejected_busy <- t.rejected_busy + 1;
          `Busy
        end
        else if mine >= t.config.client_quota then begin
          t.rejected_quota <- t.rejected_quota + 1;
          `Quota
        end
        else begin
          t.seq <- t.seq + 1;
          Queue.add { seq = t.seq; client; arrived; req } t.queue;
          Hashtbl.replace t.per_client client (mine + 1);
          t.max_depth <- max t.max_depth (depth + 1);
          `Accepted
        end)
  in
  let refuse code msg =
    `Replied
      (note_reply t
         (P.error ~id:req.P.id
            ~data:[ ("retry_after_ms", J.Num 100.0) ]
            code msg))
  in
  match verdict with
  | `Accepted -> `Queued
  | `Memory ->
    refuse P.Busy
      (Printf.sprintf "memory pressure: %.0f MB exceeds the %d MB watermark"
         (mem_pressure_mb t) t.config.mem_watermark_mb)
  | `Busy ->
    refuse P.Busy
      (Printf.sprintf "queue full (%d requests)" t.config.max_queue)
  | `Quota ->
    refuse P.Quota_exceeded
      (Printf.sprintf "client has %d requests queued (quota %d)"
         t.config.client_quota t.config.client_quota)

let submit t ~client line =
  let trimmed = String.trim line in
  match J.parse trimmed with
  | Error msg -> `Replied (note_reply t (P.error P.Parse_error msg))
  | Ok json -> (
    Mutex.protect t.lock (fun () -> t.requests_total <- t.requests_total + 1);
    match P.parse_request json with
    | Error (code, msg) ->
      let id = Option.value (J.member "id" json) ~default:J.Null in
      `Replied (note_reply t (P.error ~id code msg))
    | Ok req -> (
      Mutex.protect t.lock (fun () ->
          bump ( + ) t.verb_counts (P.verb_name req.P.verb) 1);
      match handler req.P.verb with
      | Control payload ->
        let reply =
          note_reply t
            (P.response ~id:req.P.id ~verb:req.P.verb
               ~served:
                 { P.elapsed_ms = 0.0; plan = P.Not_applicable;
                   bias = P.Not_applicable; batched = 1 }
               (payload t))
        in
        if req.P.verb = P.Shutdown then `Shutdown reply else `Replied reply
      | Alone _ | Sweep _ -> admit t ~client req))

(* ------------------------------------------------------------------ *)
(* drain: execute everything queued, coalescing sweep-shaped work *)

let finish_timing t verb t0 =
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Mutex.protect t.lock (fun () ->
      t.svc_total_ms <- t.svc_total_ms +. elapsed_ms;
      t.svc_last_ms <- elapsed_ms;
      if elapsed_ms > t.svc_max_ms then t.svc_max_ms <- elapsed_ms;
      bump ( +. ) t.verb_ms (P.verb_name verb) elapsed_ms);
  elapsed_ms

(* chaos point: die abruptly mid-request, exactly as a segfault or an
   OOM kill would — no at_exit, no cleanup.  The supervisor's job is
   to make this invisible to the next request. *)
let fire_kill () =
  if E.Fault.fire E.Fault.Server_kill then begin
    Log.err (fun m -> m "injected fault: killing worker mid-request");
    Unix._exit 70
  end

(* Arm the cooperative-cancellation token for one dispatch.  The
   deadline counts from admission ([arrived]), so time spent queued
   burns budget too; a request that expired while queued is refused
   before any engine work. *)
let run_with_deadline t ~arrived ~deadline_ms f =
  match deadline_ms with
  | None -> f ()
  | Some ms -> (
    let tok = N.Cancel.create ~deadline:(arrived +. (ms /. 1000.0)) () in
    try
      N.Cancel.check tok;
      N.Cancel.with_token tok f
    with N.Cancel.Cancelled _ as e ->
      Mutex.protect t.lock (fun () ->
          t.deadline_exceeded <- t.deadline_exceeded + 1);
      raise e)

(* The one dispatch path: a lone request is a group of one, a sweep
   group is led by its first member, whose plan and deadline serve
   everyone.  [work] runs under the group's fault point, deadline and
   error mapping and returns the leader's cache notes plus a renderer
   of each member's result. *)
let serve_group t (members : (pending * 'a) list) work emit =
  let t0 = Unix.gettimeofday () in
  let leader = (fst (List.hd members)).req in
  let n = List.length members in
  Mutex.protect t.lock (fun () ->
      t.dispatches <- t.dispatches + 1;
      t.coalesced <- t.coalesced + (n - 1));
  Log.debug (fun m ->
      m "dispatch %s: %d request(s)" (P.verb_name leader.P.verb) n);
  (* the earliest member's admission time bounds the whole group (all
     members carry the same deadline_ms by [compatible]) *)
  let arrived =
    List.fold_left
      (fun acc ((p : pending), _) -> Float.min acc p.arrived)
      Float.infinity members
  in
  let outcome =
    guard_result ~id:leader.P.id (fun () ->
        fire_kill ();
        run_with_deadline t ~arrived ~deadline_ms:leader.P.deadline_ms work)
  in
  let elapsed_ms = finish_timing t leader.P.verb t0 in
  List.iteri
    (fun i ((p : pending), member) ->
      emit p.seq p.client
        (note_reply t
           (match outcome with
           | Error failure ->
             (* the group failed as a unit (lint refusal, singular
                pivot, bad deck): every member gets the error, tagged
                with its own id *)
             with_id failure p.req.P.id
           | Ok (plan, bias, render) ->
             (* the leader reports the real cache outcome; coalesced
                followers ran off the (by now resident) plan *)
             let plan, bias =
               if i = 0 then (plan, bias) else (P.Hit, P.Hit)
             in
             P.response ~id:p.req.P.id ~verb:leader.P.verb
               ~served:{ P.elapsed_ms; plan; bias; batched = n }
               (render member))))
    members

(* Serve a sweep group with one pool dispatch over the union of its
   frequencies.  Byte-identity with one-by-one serving holds because
   the cached plan's pivot order is fixed by its first (master)
   factorization — every dispatch refills the same pattern
   numerically. *)
let solve_sweep t sv leader union =
  let compiled, plan_note = compiled_of t leader.sg_deck in
  let bias_note = bias_note compiled in
  let pool = Flow.pool_of t.options in
  (plan_note, bias_note, sv.solve pool compiled leader union)

let drain ?(alive = fun _ -> true) t =
  let items =
    Mutex.protect t.lock (fun () ->
        let items = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        Hashtbl.reset t.per_client;
        items)
  in
  (* a client that hung up while queued gets no work done on its
     behalf: the reply would be dropped anyway, so the pool slot goes
     to a request somebody is still waiting for *)
  let items =
    List.filter
      (fun (p : pending) ->
        alive p.client
        ||
        begin
          Mutex.protect t.lock (fun () -> t.disconnected <- t.disconnected + 1);
          Log.info (fun m ->
              m "dropping request from disconnected client #%d" p.client);
          false
        end)
      items
  in
  let results = ref [] in
  let emit seq client reply = results := (seq, (client, reply)) :: !results in
  (* a sweep request's params are read once, here: a refusal is its
     reply, a signature is what it coalesces by *)
  let signed (p : pending) =
    match handler p.req.P.verb with
    | Sweep sv -> (
      match
        guard_result ~id:p.req.P.id (fun () -> sweep_signature sv p.req)
      with
      | Ok sg -> Some (p, Some sg)
      | Error reply ->
        emit p.seq p.client (note_reply t reply);
        None)
    | Alone _ | Control _ -> Some (p, None)
  in
  (* dispatch in submission order of each group's first member *)
  let rec dispatch = function
    | [] -> ()
    | ((p : pending), sg) :: rest -> (
      match (handler p.req.P.verb, sg) with
      | Alone run, _ ->
        serve_group t [ (p, ()) ]
          (fun () ->
            let result, plan, bias = run t p.req in
            (plan, bias, fun () -> result))
          emit;
        dispatch rest
      | Sweep sv, Some sg ->
        let mates, rest =
          List.partition_map
            (function
              | q, Some qs when q.req.P.verb = p.req.P.verb && compatible sg qs
                ->
                Either.Left (q, qs)
              | other -> Either.Right other)
            rest
        in
        let members = (p, sg) :: mates in
        serve_group t members
          (fun () -> solve_sweep t sv sg (union_freqs members))
          emit;
        dispatch rest
      | (Sweep _ | Control _), _ -> assert false (* signed; never queued *))
  in
  dispatch (List.filter_map signed items);
  List.sort (fun (a, _) (b, _) -> compare a b) !results |> List.map snd

(* Replay the warmup journal into the plan cache (most recent
   [max_decks] unique decks), then compact the file to exactly those
   entries.  Failures are counted, not raised: a deck that stopped
   compiling only costs its own warmth. *)
let warm_from_journal t =
  match t.journal with
  | None -> (0, 0)
  | Some j ->
    let decks =
      List.map
        (fun (e : Journal.entry) ->
          deck_of_text (P.Inline e.Journal.text) e.Journal.text
            e.Journal.overrides)
        (Journal.replay ~path:(Journal.path j))
    in
    let seen = Hashtbl.create 16 in
    let unique =
      List.rev decks
      |> List.filter (fun d ->
             if Hashtbl.mem seen d.key then false
             else begin
               Hashtbl.replace seen d.key ();
               true
             end)
      |> List.filteri (fun i _ -> i < t.config.max_decks)
      |> List.rev
    in
    t.journaling <- false;
    let ok = ref 0 and failed = ref 0 in
    List.iter
      (fun d ->
        match compiled_of t d with
        | _ -> incr ok
        | exception _ -> incr failed)
      unique;
    t.journaling <- true;
    List.iter (fun d -> Hashtbl.replace t.journaled d.key ()) unique;
    Mutex.protect t.lock (fun () -> t.journal_replayed <- !ok);
    if unique <> [] then
      Journal.rewrite j
        (List.map
           (fun d -> { Journal.text = d.text; overrides = d.overrides })
           unique);
    Log.info (fun m ->
        m "warmup journal: %d plan(s) recompiled, %d failed" !ok !failed);
    (!ok, !failed)

let handle t ~client line =
  match submit t ~client line with
  | `Replied r | `Shutdown r -> [ r ]
  | `Queued ->
    drain t
    |> List.filter_map (fun (c, reply) ->
           if c = client then Some reply else None)
