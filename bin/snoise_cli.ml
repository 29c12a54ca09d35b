(* Command-line driver for the substrate-noise impact flow.

   snoise fig3 | fig7 | fig8 | fig9 | fig10 | card | runtime | all
   snoise extract <layout.txt>     substrate macromodel of a layout file
   snoise netlist [--vtune V]      dump the merged VCO impact model *)

open Cmdliner

(* The common flags, read once: logging is set up on the way, and the
   run configuration comes back as the options every flow is called
   with, paired with the [--jobs] width (see [with_jobs]). *)
let setup verbose jobs no_lint cache_dir no_cache reduce_order reduce_tol =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning);
  let reduce =
    match
      Snoise.Reduced_model.(
        config_of_knobs
          ~name:(function
            | Order -> "--reduce-order" | Tol -> "--reduce-tol" | S0 -> "s0")
          ?order:(Option.map float_of_int reduce_order) ?tol:reduce_tol ())
    with
    | Ok config -> config
    | Error msg ->
      Format.eprintf "snoise: %s@." msg;
      exit 1
  in
  if no_cache then Sn_substrate.Cache.set_default_dir None
  else
    Option.iter
      (fun d -> Sn_substrate.Cache.set_default_dir (Some d))
      cache_dir;
  ({ Snoise.Flow.default_options with lint = not no_lint; reduce }, jobs)

(* [--jobs N] becomes the run's own pool of width N; without it the
   default pool ([SNOISE_JOBS]) serves the run *)
let with_jobs (options, jobs) =
  { options with
    Snoise.Flow.pool =
      Option.map (fun jobs -> Sn_engine.Pool.create ~jobs ()) jobs }

let verbose_flag =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log extraction progress.")

let jobs_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the experiment sweeps (default: \
           $(b,SNOISE_JOBS) or the machine's recommended domain count; \
           1 runs the exact sequential path).  Output is identical for \
           every width.")

let no_lint_flag =
  Arg.(
    value & flag
    & info [ "no-lint" ]
        ~doc:
          "Skip the netlist lint gate.  By default a merged model with \
           lint errors (floating island, voltage-source loop, ...) \
           refuses to simulate with exit code 2.")

let cache_dir_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist reduced substrate tile macromodels under $(docv) \
           (content-addressed: entries are keyed by what they were \
           computed from, so stale hits are impossible).  Default: \
           $(b,SNOISE_CACHE_DIR) when set, otherwise no caching.")

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the substrate macromodel cache, overriding \
           $(b,--cache-dir) and $(b,SNOISE_CACHE_DIR).")

let reduce_order_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "reduce-order" ] ~docv:"K"
        ~doc:
          "Swap every merged model's passive pool (substrate resistors, \
           well capacitors, interconnect RC) for its passivity-preserving \
           PRIMA reduction matching $(docv) block moments before \
           simulating.  Mutually exclusive with $(b,--reduce-tol).")

let reduce_tol_flag =
  Arg.(
    value
    & opt (some float) None
    & info [ "reduce-tol" ] ~docv:"TOL"
        ~doc:
          "Like $(b,--reduce-order), but grow the reduction order \
           automatically until the estimated port-transfer error over the \
           AC band drops below the relative tolerance $(docv).")

(* every command takes -v, --jobs, --no-lint, the cache knobs and the
   model-order-reduction knobs *)
let common =
  Term.(
    const setup $ verbose_flag $ jobs_flag $ no_lint_flag $ cache_dir_flag
    $ no_cache_flag $ reduce_order_flag $ reduce_tol_flag)

let options = Term.(const with_jobs $ common)

let fmt = Format.std_formatter

let finish () = Format.pp_print_flush fmt ()

(* Engine diagnostics (a lint refusal, a solve that exhausted the
   rescue ladder) exit with code 2 — distinct from cmdliner's 1 for
   usage errors and the lint/drc commands' 1 for "found findings". *)
let or_diag_exit f =
  try f ()
  with Sn_engine.Diag.Error d ->
    finish ();
    Format.eprintf "snoise: %a@." Sn_engine.Diag.pp d;
    exit 2

let print_json j = print_endline (Sn_json.Json.to_string j)

module R = Snoise.Report
module X = Snoise.Experiments

(* the experiments of the figure commands and of [all], one Experiments
   -> Report call each *)
let fig3 options =
  R.fig3 fmt (X.fig3 ~options ());
  R.sec3 fmt (X.sec3_numbers ~options ())

let fig7 f_noise options = R.fig7 fmt (X.fig7 ~options ~f_noise ())
let fig8 options = R.fig8 fmt (X.fig8 ~options ())
let fig9 options = R.fig9 fmt (X.fig9 ~options ())
let fig10 options = R.fig10 fmt (X.fig10 ~options ())
let card options = R.vco_card fmt (X.vco_card ~options ())
let runtime options = R.runtime fmt (X.runtime ~options ())
let aggressor options = R.aggressor fmt (X.aggressor_comb ~options ())
let ablations options = R.ablations fmt (X.ablations ~options ())

(* one experiment, run as a command *)
let report run options =
  or_diag_exit (fun () ->
      run options;
      finish ())

let run_all options =
  List.iter
    (fun run -> report run options)
    [ fig3; fig7 Snoise.Flow.default_f_noise; fig8; fig9; fig10; card; ablations; runtime ]

let run_extract options path =
  let layout = Sn_layout.Layout_io.load path in
  let macro =
    Sn_substrate.Extractor.extract_from_layout ?pool:options.Snoise.Flow.pool
      ~tech:Sn_tech.Tech.imec018 layout
  in
  Sn_substrate.Macromodel.pp fmt macro;
  Format.fprintf fmt "@.";
  List.iter
    (fun (a, b, r) ->
      Format.fprintf fmt "R %s %s %s@." a b
        (Sn_numerics.Units.eng ~unit:"Ohm" r))
    (Sn_substrate.Macromodel.to_resistors macro);
  finish ()

(* the merged VCO impact model: what netlist prints and the deck op,
   lint and verify fall back to *)
let merged_vco ?(vtune = Snoise.Flow.default_vtune) options =
  Snoise.Flow.vco_merged
    (Snoise.Flow.build_vco ~options Sn_testchip.Vco_chip.default ~vtune)

let run_netlist options vtune =
  or_diag_exit (fun () ->
      print_string (Sn_circuit.Spice.to_string (merged_vco ~vtune options)))

let run_op options vtune file =
  or_diag_exit (fun () ->
      let netlist =
        match file with
        | Some path ->
          let nl = Sn_circuit.Spice.load path in
          Snoise.Flow.lint_gate ~enabled:options.Snoise.Flow.lint nl;
          nl
        | None -> merged_vco ~vtune options
      in
      let dc = Sn_engine.Dc.solve netlist in
      Format.fprintf fmt "%a@." Sn_engine.Dc.pp dc;
      finish ())

let run_lint options json strict ignores disables file =
  or_diag_exit (fun () ->
      let deck, netlist =
        match file with
        | Some path -> (path, Sn_circuit.Spice.load path)
        | None -> ("merged VCO impact model", merged_vco options)
      in
      let config =
        Sn_analysis.Analyzer.configure ~disable:disables ~ignore:ignores
      in
      let report = Sn_analysis.Analyzer.analyze ~config netlist in
      if json then print_json (Sn_analysis.Analyzer.to_json report)
      else Snoise.Report.lint fmt ~deck report;
      finish ();
      let failing =
        Sn_analysis.Analyzer.errors report <> []
        || (strict && Sn_analysis.Analyzer.warnings report <> [])
      in
      if failing then exit 1)

(* snoise verify: the numerical pre-flight (deck mode) or certificate
   verification of a tile-cache directory (--cache).  Stricter than
   lint by design: ANY finding — warnings included — or a refused
   reduction certificate, or a bad cache entry, exits 1.  Unreadable
   input exits 2, like every diagnostic failure. *)

let run_verify options json ignores disables cache file =
  or_diag_exit (fun () ->
      match (cache, file) with
      | Some _, Some _ ->
        Format.eprintf "snoise verify: give a deck or --cache, not both@.";
        exit 2
      | Some dir, None ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then begin
          Format.eprintf "snoise verify: %S is not a directory@." dir;
          exit 2
        end;
        let module SC = Sn_substrate.Cache in
        let v = SC.verify_dir (SC.create ~dir) in
        if json then print_json (Snoise.Report.cache_verification_json ~dir v)
        else Snoise.Report.cache_verification fmt ~dir v;
        finish ();
        if v.SC.vf_bad > 0 then exit 1
      | None, _ ->
        let deck, netlist =
          match file with
          | Some path -> (
            ( path,
              try Sn_circuit.Spice.load path with
              | Sn_circuit.Spice.Parse_error (line, msg) ->
                Format.eprintf "snoise verify: %s:%d: %s@." path line msg;
                exit 2
              | Sn_circuit.Netlist.Invalid msg ->
                Format.eprintf "snoise verify: %s: %s@." path
                  (String.concat "; " msg);
                exit 2 ))
          | None ->
            (* unreduced: the pre-flight dry-runs the reduction itself *)
            ( "merged VCO impact model",
              merged_vco { options with Snoise.Flow.reduce = None } )
        in
        let config =
          Sn_analysis.Analyzer.configure ~disable:disables ~ignore:ignores
        in
        let p =
          Snoise.Flow.preflight ~config ?reduce:options.Snoise.Flow.reduce
            netlist
        in
        if json then print_json (Snoise.Report.verify_json ~deck p)
        else Snoise.Report.verify fmt ~deck p;
        finish ();
        if Snoise.Flow.preflight_failing p then exit 1)

let run_drc _common file =
  let layout =
    match file with
    | Some path -> Sn_layout.Layout_io.load path
    | None -> Sn_testchip.Vco_chip.layout Sn_testchip.Vco_chip.default
  in
  let vs = Sn_layout.Drc.check ~tech:Sn_tech.Tech.imec018 layout in
  if vs = [] then Format.fprintf fmt "layout is DRC clean@."
  else List.iter (fun v -> Format.fprintf fmt "%a@." Sn_layout.Drc.pp v) vs;
  finish ();
  if vs <> [] then exit 1

let run_isolation options path port1 port2 =
  let layout = Sn_layout.Layout_io.load path in
  let macro =
    Sn_substrate.Extractor.extract_from_layout ?pool:options.Snoise.Flow.pool
      ~tech:Sn_tech.Tech.imec018 layout
  in
  let nl =
    Sn_circuit.Netlist.create
      (Snoise.Merge.of_macromodel macro
      @ [ Sn_circuit.Element.Resistor
            { name = "rref"; n1 = port1; n2 = "0"; ohms = 1.0e12 } ])
  in
  let freqs = Sn_numerics.Sweep.logspace 1.0e6 1.0e9 10 in
  let points = Sn_engine.Twoport.analyze nl ~port1 ~port2 ~freqs in
  Format.fprintf fmt "%14s %14s@." "freq" "isolation";
  List.iter
    (fun (s : Sn_engine.Twoport.sparams) ->
      Format.fprintf fmt "%14s %11.1f dB@."
        (Sn_numerics.Units.eng ~unit:"Hz" s.Sn_engine.Twoport.freq)
        (Sn_engine.Twoport.isolation_db s))
    points;
  finish ()

(* --- the resident service ------------------------------------------ *)

let default_socket () =
  match Sys.getenv_opt "SNOISE_SOCKET" with
  | Some s when s <> "" -> s
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "snoise.sock"

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> ("127.0.0.1", int_of_string s)
  | Some i ->
    ( String.sub s 0 i,
      int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )

(* Crash-only supervision: fork the worker, restart it on abnormal
   exit with exponential backoff.  The worker learns its restart
   ordinal through SNOISE_RESTARTS (surfaced in [stats]); SNOISE_FAULT
   is scrubbed after the first crash so a single-shot injected fault
   cannot put the pair into a crash loop. *)
let supervise_loop run_worker =
  let restarts = ref 0 in
  let describe = function
    | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
    | Unix.WSIGNALED sg -> Printf.sprintf "killed by signal %d" sg
    | Unix.WSTOPPED sg -> Printf.sprintf "stopped by signal %d" sg
  in
  let rec loop backoff =
    let started = Unix.gettimeofday () in
    match Unix.fork () with
    | 0 ->
      Unix.putenv "SNOISE_RESTARTS" (string_of_int !restarts);
      (try run_worker () with
      | Sn_engine.Diag.Error d ->
        Format.eprintf "snoise: %a@." Sn_engine.Diag.pp d;
        exit 2);
      exit 0
    | pid -> (
      let _, status = Unix.waitpid [] pid in
      match status with
      | Unix.WEXITED 0 -> exit 0
      | status ->
        incr restarts;
        Unix.putenv "SNOISE_FAULT" "";
        let uptime = Unix.gettimeofday () -. started in
        let backoff =
          if uptime > 60.0 then 0.5 else Float.min 30.0 (backoff *. 2.0)
        in
        Format.eprintf
          "snoise serve: worker %s; restart #%d in %.1f s@."
          (describe status) !restarts backoff;
        Format.pp_print_flush Format.err_formatter ();
        Unix.sleepf backoff;
        loop backoff)
  in
  loop 0.25

let run_serve common socket tcp auth_token supervise max_queue quota
    max_decks tran_max_points max_flows mem_watermark_mb warmup_journal =
  let tcp =
    Option.map
      (fun s ->
        try parse_host_port s
        with Failure _ ->
          Format.eprintf "snoise serve: bad --tcp %S (HOST:PORT)@." s;
          exit 1)
      tcp
  in
  let config =
    {
      Sn_server.Service.max_queue;
      client_quota = quota;
      max_decks;
      tran_max_points;
      max_flows;
      mem_watermark_mb;
      warmup_journal;
    }
  in
  let worker () =
    (* the --jobs pool is spawned here, after the supervisor's fork:
       Unix.fork refuses a process that already runs other domains *)
    let options = with_jobs common in
    let server =
      Sn_server.Server.create ~config ~options ?tcp ?auth_token ~socket ()
    in
    (match Sn_server.Service.warm_from_journal (Sn_server.Server.service server)
     with
    | 0, 0 -> ()
    | ok, failed ->
      Format.printf "snoise serve: warmed %d plan(s) from journal%s@." ok
        (if failed > 0 then Printf.sprintf " (%d failed)" failed else ""));
    Sn_server.Server.serve
      ~on_ready:(fun () ->
        Format.printf "snoise serve: listening on %s%s@." socket
          (match tcp with
          | Some (h, p) -> Printf.sprintf " and tcp %s:%d" h p
          | None -> "");
        Format.pp_print_flush Format.std_formatter ())
      server
  in
  if supervise then supervise_loop worker
  else or_diag_exit (fun () -> worker ())

(* one-shot JSONL client: send request lines (positional or stdin),
   print each reply line, exit 1 when any reply is an error *)
let run_request _common socket wait lines =
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  in
  let fd =
    let deadline = Unix.gettimeofday () +. wait in
    let rec retry () =
      match connect () with
      | fd -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        retry ()
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "snoise request: cannot connect to %s: %s@." socket
          (Unix.error_message e);
        exit 2
    in
    retry ()
  in
  let lines =
    match lines with
    | _ :: _ -> lines
    | [] ->
      let rec slurp acc =
        match In_channel.input_line stdin with
        | Some l -> slurp (l :: acc)
        | None -> List.rev acc
      in
      slurp []
  in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  let payload = String.concat "\n" lines ^ "\n" in
  let rec send off =
    if off < String.length payload then
      send (off + Unix.write_substring fd payload off (String.length payload - off))
  in
  send 0;
  let ic = Unix.in_channel_of_descr fd in
  let saw_error = ref false in
  let rec read_replies n =
    if n > 0 then
      match In_channel.input_line ic with
      | Some reply ->
        print_endline reply;
        (match Sn_json.Json.parse reply with
        | Ok j -> (
          match Sn_json.Json.member "type" j with
          | Some (Sn_json.Json.Str "error") -> saw_error := true
          | _ -> ())
        | Error _ -> saw_error := true);
        read_replies (n - 1)
      | None ->
        Format.eprintf "snoise request: server closed the connection@.";
        exit 2
  in
  read_replies (List.length lines);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if !saw_error then exit 1

let socket_arg =
  Arg.(
    value
    & opt string (default_socket ())
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path (default: $(b,SNOISE_SOCKET) or \
           snoise.sock in the system temp directory).")

let f_noise_arg =
  Arg.(
    value
    & opt float Snoise.Flow.default_f_noise
    & info [ "f-noise" ] ~docv:"HZ" ~doc:"Substrate tone frequency in Hz.")

let vtune_arg =
  Arg.(
    value
    & opt float Snoise.Flow.default_vtune
    & info [ "vtune" ] ~docv:"V" ~doc:"VCO tuning voltage.")

let layout_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"LAYOUT" ~doc:"Layout file (text format).")

(* a [serve] limit: an integer flag defaulting to the service's own
   [default_config] field *)
let limit_flag name docv field doc =
  Arg.(
    value
    & opt int (field Sn_server.Service.default_config)
    & info [ name ] ~docv ~doc)

let cmd name doc term =
  Cmd.v (Cmd.info name ~doc) term

(* a figure command: its experiment, with the arguments it reads *)
let figure name doc run = cmd name doc Term.(const report $ run $ options)

let cmds =
  [
    figure "fig3"
      "NMOS measurement structure transfer (paper Figure 3 / section 3)"
      (Term.const fig3);
    figure "fig7" "VCO output spectrum with a substrate tone (paper Figure 7)"
      Term.(const fig7 $ f_noise_arg);
    figure "fig8" "spur power vs noise frequency and Vtune (paper Figure 8)"
      (Term.const fig8);
    figure "fig9" "per-device contribution analysis (paper Figure 9)"
      (Term.const fig9);
    figure "fig10" "ground interconnect sizing experiment (paper Figure 10)"
      (Term.const fig10);
    figure "card" "VCO design card check (paper section 4)" (Term.const card);
    figure "runtime"
      "extraction / simulation wall-clock (paper section 6 note)"
      (Term.const runtime);
    figure "aggressor"
      "digital switching-noise spur comb (the paper's sign-off outlook)"
      (Term.const aggressor);
    cmd "all" "run every experiment" Term.(const run_all $ options);
    cmd "extract" "extract the substrate macromodel of a layout file"
      Term.(const run_extract $ options $ layout_arg);
    cmd "netlist" "print the merged VCO impact model as a SPICE deck"
      Term.(const run_netlist $ options $ vtune_arg);
    cmd "drc" "design-rule check a layout file (default: the VCO layout)"
      Term.(
        const run_drc $ common
        $ Arg.(
            value
            & pos 0 (some file) None
            & info [] ~docv:"LAYOUT" ~doc:"Layout file to check."));
    cmd "isolation"
      "S21 substrate isolation between two ports of a layout file"
      Term.(
        const run_isolation $ options $ layout_arg
        $ Arg.(
            required
            & pos 1 (some string) None
            & info [] ~docv:"PORT1" ~doc:"Aggressor port name.")
        $ Arg.(
            required
            & pos 2 (some string) None
            & info [] ~docv:"PORT2" ~doc:"Victim port name."));
    cmd "op" "DC operating point of a SPICE deck (default: the merged VCO)"
      Term.(
        const run_op $ options $ vtune_arg
        $ Arg.(
            value
            & pos 0 (some file) None
            & info [] ~docv:"DECK"
                ~doc:
                  "SPICE netlist file to solve (lint-gated); omit to \
                   solve the merged VCO impact model."));
    cmd "serve"
      "persistent simulation service over a Unix-domain socket (JSONL)"
      Term.(
        const run_serve $ common $ socket_arg
        $ Arg.(
            value
            & opt (some string) None
            & info [ "tcp" ] ~docv:"HOST:PORT"
                ~doc:
                  "Additionally listen on a TCP endpoint.  Pair it \
                   with $(b,--auth-token) unless the interface is \
                   loopback: without a token the TCP endpoint is \
                   open.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "auth-token" ] ~docv:"SECRET"
                ~doc:
                  "Require TCP clients to present $(docv) as a \
                   top-level $(b,auth_token) member before serving \
                   them (constant-time comparison; unauthenticated \
                   lines get the stable $(b,unauthorized) error).  \
                   The Unix socket, guarded by file permissions, \
                   never needs it.")
        $ Arg.(
            value & flag
            & info [ "supervise" ]
                ~doc:
                  "Run the worker under a supervisor that restarts it \
                   on abnormal exit with exponential backoff \
                   (crash-only operation).  Pair with \
                   $(b,--warmup-journal) so a restarted worker \
                   re-compiles recently served plans before \
                   accepting traffic.")
        $ limit_flag "max-queue" "N" (fun c -> c.max_queue)
            "Bounded request-queue capacity; a full queue answers \
             $(b,busy) with a retry hint instead of buffering without \
             limit."
        $ limit_flag "quota" "N" (fun c -> c.client_quota)
            "Max requests one client may have queued at once; beyond it \
             the client is answered $(b,quota-exceeded)."
        $ limit_flag "max-decks" "N" (fun c -> c.max_decks)
            "Compiled-plan cache bound (LRU eviction beyond it)."
        $ limit_flag "tran-max-points" "N" (fun c -> c.tran_max_points)
            "Largest transient point count a request may ask for."
        $ limit_flag "max-flows" "N" (fun c -> c.max_flows)
            "Bound on resident per-(vtune, grid) VCO flows (LRU eviction \
             beyond it)."
        $ limit_flag "mem-watermark-mb" "MB" (fun c -> c.mem_watermark_mb)
            "Memory watermark: above $(docv) MB of live heap or accounted \
             plan bytes the service sheds least-recently-used plans and \
             answers $(b,busy) with a retry hint instead of running into \
             the OOM killer."
        $ Arg.(
            value
            & opt (some string) None
            & info [ "warmup-journal" ] ~docv:"PATH"
                ~doc:
                  "Append compiled-deck digests to $(docv) and replay \
                   them at startup, so a restarted worker serves \
                   recently used plans warm.  The journal is \
                   fail-soft: corruption or a damaged tail just \
                   shortens the replay."));
    cmd "request"
      "send JSONL request lines to a running snoise serve and print replies"
      Term.(
        const run_request $ common $ socket_arg
        $ Arg.(
            value
            & opt float 0.0
            & info [ "wait" ] ~docv:"SECONDS"
                ~doc:
                  "Retry connecting for up to $(docv) (a just-started \
                   server may not be listening yet).")
        $ Arg.(
            value
            & pos_all string []
            & info [] ~docv:"REQUEST"
                ~doc:
                  "Request lines (JSON objects).  With none, lines are \
                   read from stdin.  Exit status: 0 when every reply is \
                   a response, 1 when any reply is an error, 2 on \
                   connection failure."));
    cmd "lint"
      "structural ERC of a SPICE deck (default: the merged VCO model)"
      Term.(
        const run_lint $ options
        $ Arg.(
            value & flag
            & info [ "json" ]
                ~doc:"Emit the report as a JSON object on stdout.")
        $ Arg.(
            value & flag
            & info [ "strict" ]
                ~doc:"Exit 1 on warnings too, not only on errors.")
        $ Arg.(
            value
            & opt_all string []
            & info [ "ignore" ] ~docv:"CODE[=SUBJECT]"
                ~doc:
                  "Suppress diagnostics of rule $(docv); with \
                   $(b,=SUBJECT), only on that element/node/port.  \
                   Repeatable.  Equivalent to an in-deck \
                   $(b,*%snoise ignore) pragma.")
        $ Arg.(
            value
            & opt_all string []
            & info [ "disable" ] ~docv:"CODE"
                ~doc:"Do not run rule $(docv) at all.  Repeatable.")
        $ Arg.(
            value
            & pos 0 (some file) None
            & info [] ~docv:"DECK" ~doc:"SPICE netlist file to lint."));
    cmd "verify"
      "numerical pre-flight of a deck, or certificate verification of a \
       tile-cache directory"
      Term.(
        const run_verify $ options
        $ Arg.(
            value & flag
            & info [ "json" ]
                ~doc:
                  "Emit the result as a JSON object on stdout \
                   (carries the same $(b,schema_version) as \
                   $(b,snoise lint --json)).")
        $ Arg.(
            value
            & opt_all string []
            & info [ "ignore" ] ~docv:"CODE[=SUBJECT]"
                ~doc:
                  "Suppress diagnostics of rule $(docv), as in \
                   $(b,snoise lint).  Repeatable.")
        $ Arg.(
            value
            & opt_all string []
            & info [ "disable" ] ~docv:"CODE"
                ~doc:"Do not run rule $(docv) at all.  Repeatable.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "cache" ] ~docv:"DIR"
                ~doc:
                  "Verify the tile-cache directory $(docv) instead of \
                   a deck: every entry is re-judged from its bytes \
                   alone (certificate hashing, or a fresh LDL^T for \
                   uncertified entries) — no extraction, no CG \
                   iterations.  Exit 1 when any entry is bad.")
        $ Arg.(
            value
            & pos 0 (some file) None
            & info [] ~docv:"DECK"
                ~doc:
                  "SPICE netlist file to pre-flight (default: the \
                   merged VCO impact model).  Any finding — warnings \
                   included — exits 1; unreadable input exits 2."));
  ]

let () =
  let info =
    Cmd.info "snoise" ~version:"1.0.0"
      ~doc:
        "Substrate noise impact simulation for analog/RF circuits \
         including interconnect resistance (Soens et al., DATE 2005)"
  in
  exit (Cmd.eval (Cmd.group info cmds))
