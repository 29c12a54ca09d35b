(* served_mix: four logical clients of the in-process service, in one
   thread.  Each round every client submits one request, then the
   round drains; a client's next request waits for its reply (a closed
   loop).  Replies are encoded as the wire would carry them.

   The traffic is a synthetic stress assumption, not a recorded log
   (the repository has none).  Each choice is made for the path it
   exercises:
   - four clients: with four verbs to pick from, nine rounds in ten
     read rounds hold two identical requests for the service to
     coalesce;
   - a read round sends the base deck: each client picks ac, noise,
     op or spur with equal odds, since no log says which verb is
     common.  Every request hits the plan (or spur-flow) cache;
   - a write round is every fifth round: each client picks ac, noise
     or op (spur takes no deck) and overrides rprobe_vss with a value
     never sent before, a plan miss that parses, lints, compiles and
     solves DC.  Writes are a minority so that the median request
     stays on the read path while throughput pays for both, and the
     fixed cycle keeps every run's share of writes the same;
   - spur noise frequencies are log-uniform over 1-15 MHz, the band
     of Experiments.default_f_noise (Figs 8-10).
   The traced run reports read and write rounds apart.

   The merged deck goes over the wire as Spice.to_string writes it,
   except that the interconnect elements are renamed: the writer names
   them itc_R... / itc_C..., which Spice.of_string reads back as
   current sources. *)

module J = Sn_server.Json
module Sv = Sn_server.Service
module Flow = Snoise.Flow
module C = Sn_circuit

let clients = 4
let vtune = 0.45
let freqs = Sn_numerics.Sweep.logspace 1.0e5 15.0e6 16
let nodes = Ground_whatif.transfer_nodes

let wire_deck flow =
  String.split_on_char '\n' (C.Spice.to_string (Flow.vco_merged flow))
  |> List.map (fun line ->
         if String.starts_with ~prefix:"itc_R" line
            || String.starts_with ~prefix:"itc_C" line
         then String.make 1 (Char.lowercase_ascii line.[4]) ^ line
         else line)
  |> String.concat "\n"

let json_floats xs = J.to_string (J.Arr (List.map (fun x -> J.Num x) (Array.to_list xs)))
let json_strings xs = J.to_string (J.Arr (List.map (fun x -> J.Str x) xs))

type verb = Ac | Noise | Op | Spur

let verb_name = function Ac -> "ac" | Noise -> "noise" | Op -> "op" | Spur -> "spur"

type request = {
  verb : verb;
  probe_ohms : float option;  (** a fresh rprobe_vss override *)
  f_noise : float;  (** spur only *)
  line : string;
}

let member path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let str path j = Option.bind (member path j) J.to_str

(* complex node voltages of an ac reply, point by point *)
let ac_values reply =
  match Option.bind (member [ "result"; "points" ] reply) J.to_list with
  | None -> []
  | Some points ->
    List.map
      (fun p ->
        List.map
          (fun n ->
            match Option.bind (member [ "v"; n ] p) J.float_list with
            | Some [ re; im ] -> { Complex.re; im }
            | _ -> { Complex.re = nan; im = nan })
          nodes)
      points

(* worst deviation relative to each node's largest magnitude *)
let max_rel_error served (reference : Sn_engine.Ac.sweep_point array) =
  if List.length served <> Array.length reference then infinity
  else begin
    let expect =
      Array.to_list
        (Array.map
           (fun (p : Sn_engine.Ac.sweep_point) ->
             List.map (fun n -> List.assoc n p.Sn_engine.Ac.values) nodes)
           reference)
    in
    let scale =
      List.mapi
        (fun k _ ->
          List.fold_left (fun m row -> Float.max m (Complex.norm (List.nth row k))) 0.0 expect)
        nodes
    in
    List.fold_left2
      (fun worst row_s row_e ->
        List.fold_left2
          (fun worst (s, e) sc -> Float.max worst (Complex.norm (Complex.sub s e) /. sc))
          worst (List.combine row_s row_e) scale)
      0.0 served expect
  end

let with_probe nl ohms =
  C.Netlist.map
    (function
      | C.Element.Resistor r when r.name = "rprobe_vss" -> C.Element.Resistor { r with ohms }
      | e -> e)
    nl

let setup ~seed ~rep =
  let dir = Host.fresh_dir (Printf.sprintf "served_mix-%d" rep) in
  Sn_substrate.Cache.set_default_dir (Some dir);
  let flow = Flow.build_vco Sn_testchip.Vco_chip.default ~vtune in
  let deck = wire_deck flow in
  let deck_nl = C.Spice.of_string deck in
  let deck_json = J.to_string (J.Str deck) in
  let params = function
    | Ac -> Printf.sprintf {|{"freqs": %s, "nodes": %s}|} (json_floats freqs) (json_strings nodes)
    | Noise -> Printf.sprintf {|{"freqs": %s, "output": "vss_local"}|} (json_floats freqs)
    | Op -> Printf.sprintf {|{"nodes": %s}|} (json_strings nodes)
    | Spur -> assert false
  in
  let next_id = ref 0 in
  let line verb ~probe_ohms ~f_noise =
    incr next_id;
    match verb with
    | Spur ->
      Printf.sprintf {|{"id": %d, "verb": "spur", "params": {"f_noise": %s, "vtune": %s}}|}
        !next_id (J.to_string (J.Num f_noise)) (J.to_string (J.Num vtune))
    | _ ->
      let overrides =
        match probe_ohms with
        | None -> ""
        | Some v -> Printf.sprintf {|, "overrides": {"rprobe_vss": %s}|} (J.to_string (J.Num v))
      in
      Printf.sprintf {|{"id": %d, "verb": "%s", "deck": %s%s, "params": %s}|} !next_id
        (verb_name verb) deck_json overrides (params verb)
  in
  let svc = Sv.create () in
  let serve1 l =
    match Sv.handle svc ~client:0 l with
    | [ r ] when str [ "type" ] r = Some "response" -> r
    | rs -> failwith ("served_mix set-up: " ^ String.concat " " (List.map J.to_string rs))
  in
  (* the first, cold replies of the base deck: every later base-deck
     reply must carry the same result bytes *)
  let reference =
    List.map
      (fun v ->
        let r = serve1 (line v ~probe_ohms:None ~f_noise:0.0) in
        (v, J.to_string (Option.get (J.member "result" r))))
      [ Ac; Noise; Op ]
  in
  let cold_ac = serve1 (line Ac ~probe_ohms:None ~f_noise:0.0) in
  let err = max_rel_error (ac_values cold_ac) (Sn_engine.Ac.sweep deck_nl ~freqs ~nodes) in
  Harness.check (err <= 1e-12)
    "base-deck ac reply deviates %.3g from Ac.sweep of the re-parsed deck" err;
  ignore (serve1 (line Spur ~probe_ohms:None ~f_noise:1.0e7));
  let rng = Random.State.make [| seed |] in
  let used_ohms = Hashtbl.create 1024 in
  let rec fresh_ohms () =
    let v = 0.1 +. Random.State.float rng 0.9 in
    if Hashtbl.mem used_ohms v then fresh_ohms ()
    else (Hashtbl.replace used_ohms v (); v)
  in
  let draw ~write =
    let pick verbs = List.nth verbs (Random.State.int rng (List.length verbs)) in
    let verb = if write then pick [ Ac; Noise; Op ] else pick [ Ac; Noise; Op; Spur ] in
    let probe_ohms = if write then Some (fresh_ohms ()) else None in
    let f_noise = if verb = Spur then 1.0e6 *. (15.0 ** Random.State.float rng 1.0) else 0.0 in
    { verb; probe_ohms; f_noise; line = line verb ~probe_ohms ~f_noise }
  in
  let rounds = ref 0 in
  let ac_checks = ref 0 in
  let check_reply (req : request) reply =
    let plan = str [ "served"; "plan" ] reply and bias = str [ "served"; "bias" ] reply in
    let hit = function Some "hit" -> 1.0 | _ -> 0.0 in
    Trace.add "server.replies" 1.0;
    Trace.add "server.batched"
      (Option.value (Option.bind (member [ "served"; "batched" ] reply) J.to_float) ~default:0.0);
    match str [ "type" ] reply with
    | Some "response" -> (
      (match req.verb with
       | Spur ->
         Trace.add "server.flow_lookups" 1.0;
         Trace.add "server.flow_hits" (hit plan)
       | Ac | Noise | Op ->
         Trace.add "server.plan_lookups" 1.0;
         Trace.add "server.plan_hits" (hit plan);
         if bias <> None then begin
           Trace.add "server.bias_lookups" 1.0;
           Trace.add "server.bias_hits" (hit bias)
         end);
      let result = Option.get (J.member "result" reply) in
      match (req.verb, req.probe_ohms) with
      | Spur, _ ->
        let h = Flow.vco_transfers flow ~f_noise:[| req.f_noise |] in
        let s =
          Flow.vco_spur flow ~h ~p_noise_dbm:Snoise.Experiments.paper_noise_dbm
            ~f_noise:req.f_noise
        in
        let got k = Option.bind (J.member k result) J.to_float in
        Harness.check
          (got "lower_dbm" = Some s.Sn_rf.Impact.lower_dbm
          && got "upper_dbm" = Some s.Sn_rf.Impact.upper_dbm)
          "spur at %g Hz differs from Flow.vco_spur" req.f_noise
      | v, None ->
        Harness.check (plan = Some "hit") "base-deck %s missed the plan cache" (verb_name v);
        Harness.check
          (String.equal (J.to_string result) (List.assoc v reference))
          "base-deck %s result differs from the first cold reply" (verb_name v)
      | v, Some ohms ->
        Harness.check (plan = Some "miss") "fresh override on %s hit the plan cache"
          (verb_name v);
        (* every fourth override ac reply is recomputed in process *)
        if v = Ac then begin
          incr ac_checks;
          if !ac_checks mod 4 = 0 then begin
            let expect = Sn_engine.Ac.sweep (with_probe deck_nl ohms) ~freqs ~nodes in
            let err = max_rel_error (ac_values reply) expect in
            Harness.check (err <= 1e-12)
              "override ac (rprobe_vss = %g) deviates %.3g from Ac.sweep" ohms err
          end
        end)
    | _ ->
      (match str [ "error"; "code" ] reply with
       | Some ("busy" | "quota-exceeded") -> Trace.add "server.refused" 1.0
       | _ -> ());
      Harness.fail "%s request failed: %s" (verb_name req.verb) (J.to_string reply)
  in
  let iterate _ =
    let write = !rounds mod 5 = 4 in
    incr rounds;
    let reqs = Array.init clients (fun _ -> draw ~write) in
    let submitted = Array.make clients 0.0 in
    let encoded, t_round, t_end =
      Harness.measure (fun () ->
          let immediate = ref [] in
          Array.iteri
            (fun c (req : request) ->
              submitted.(c) <- Trace.now ();
              match Trace.span "server.admit" (fun () -> Sv.submit svc ~client:c req.line) with
              | `Queued -> ()
              | `Replied r | `Shutdown r -> immediate := (c, r) :: !immediate)
            reqs;
          let replies = List.rev !immediate @ Trace.span "server.drain" (fun () -> Sv.drain svc) in
          List.map
            (fun (c, r) ->
              let s = Trace.span "server.encode" (fun () -> J.to_string r) in
              (c, r, s, Trace.now ()))
            replies)
    in
    let latencies = List.map (fun (c, _, _, t) -> t -. submitted.(c)) encoded in
    Trace.set (if write then "server.write_round_ms" else "server.read_round_ms")
      ((t_end -. t_round) *. 1e3);
    let failed =
      List.fold_left
        (fun n (c, r, s, _) ->
          Trace.add "server.reply_kb" (float_of_int (String.length s) /. 1024.0);
          n + Harness.failed_checks (fun () -> check_reply reqs.(c) r))
        0 encoded
    in
    let missing = clients - List.length encoded in
    if missing > 0 then Harness.fail "%d requests got no reply" missing;
    { Harness.latencies; busy = t_end -. t_round; attempted = clients; failed = failed + missing }
  in
  let teardown () =
    Sn_substrate.Cache.set_default_dir None;
    Host.rm_rf dir
  in
  { Harness.iterate; finish = ignore; teardown }

let workload = { Harness.name = "served_mix"; warmup = 200; setup }
