module C = Sn_circuit
module E = C.Element

let diag = Rule.diag

(* location of a named element, for diagnostics that point at a card *)
let loc_of ctx name = C.Netlist.element_loc ctx.Rule.netlist name

let elements ctx = C.Netlist.elements ctx.Rule.netlist

let canonical n = if E.is_ground n then "0" else n

module Uf = Rule.Uf

(* ------------------------------------------------------------------ *)
(* dangling-node *)

let dangling_nodes ctx =
  let touches : (string, int * string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter
        (fun n ->
          if not (E.is_ground n) then
            let count, _ =
              Option.value ~default:(0, "") (Hashtbl.find_opt touches n)
            in
            Hashtbl.replace touches n (count + 1, E.name e))
        (E.nodes e))
    (elements ctx);
  Hashtbl.fold
    (fun node (count, elt) acc ->
      if count = 1 then
        diag ?loc:(loc_of ctx elt) Rule.Warning "dangling-node"
          (Rule.Node node)
          "node %s is connected to a single terminal (of %s)" node elt
        :: acc
      else acc)
    touches []

(* ------------------------------------------------------------------ *)
(* no-ground-path: union-find over DC-conducting elements.  Current
   sources conduct DC current but have infinite impedance, so they do
   not define a node's potential. *)

let dc_conducting_edges e =
  match e with
  | E.Resistor { n1; n2; _ } | E.Inductor { n1; n2; _ } -> [ (n1, n2) ]
  | E.Vsource { np; nn; _ } | E.Vcvs { np; nn; _ } -> [ (np, nn) ]
  | E.Mosfet { drain; source; _ } -> [ (drain, source) ]
  | E.Capacitor _ | E.Isource _ | E.Vccs _ | E.Varactor _ -> []

let no_ground_path ctx =
  let uf = Uf.create () in
  let nodes = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter
        (fun n -> Hashtbl.replace nodes (canonical n) ())
        (E.nodes e);
      List.iter
        (fun (a, b) -> Uf.union uf (canonical a) (canonical b))
        (dc_conducting_edges e))
    (elements ctx);
  (* lexicographically smallest member represents each floating
     component, so report order is deterministic *)
  let representative = Hashtbl.create 8 in
  Hashtbl.iter
    (fun node () ->
      if node <> "0" && not (Uf.connected uf node "0") then begin
        let root = Uf.find uf node in
        match Hashtbl.find_opt representative root with
        | Some best when String.compare best node <= 0 -> ()
        | _ -> Hashtbl.replace representative root node
      end)
    nodes;
  Hashtbl.fold
    (fun _ node acc ->
      diag Rule.Error "no-ground-path" (Rule.Node node)
        "the subcircuit containing node %s has no DC path to ground" node
      :: acc)
    representative []

(* ------------------------------------------------------------------ *)
(* vsource-loop: a cycle whose edges are ideal voltage-defined
   branches (V sources, inductors at DC) is numerically singular even
   when the pattern is structurally fine *)

let vsource_loops ctx =
  let uf = Uf.create () in
  List.filter_map
    (fun e ->
      match e with
      | E.Vsource { name; np = a; nn = b; _ }
      | E.Inductor { name; n1 = a; n2 = b; _ } ->
        let a = canonical a and b = canonical b in
        if Uf.connected uf a b then
          Some
            (diag ?loc:(loc_of ctx name) Rule.Error "vsource-loop"
               (Rule.Element name)
               "element %s closes a loop of ideal voltage sources / \
                inductors (singular at DC)"
               name)
        else begin
          Uf.union uf a b;
          None
        end
      | E.Vcvs _ | E.Resistor _ | E.Capacitor _ | E.Isource _ | E.Vccs _
      | E.Mosfet _ | E.Varactor _ ->
        None)
    (elements ctx)

(* ------------------------------------------------------------------ *)
(* isource-cutset: the dual of vsource-loop.  Contract every edge that
   is not a current source; a current source whose endpoints stay in
   different components crosses a cut made only of current sources, so
   KCL fixes its current with nothing to absorb the difference — the
   gmin floor turns that into voltages of order I/gmin. *)

let isource_cutsets ctx =
  let uf = Uf.create () in
  List.iter
    (fun e ->
      match e with
      | E.Isource _ -> ()
      | E.Vccs _ -> () (* dependent current source: no path either *)
      | E.Mosfet { drain; gate; source; bulk; _ } ->
        (* channel plus the device capacitances couple all terminals *)
        let d = canonical drain in
        List.iter
          (fun n -> Uf.union uf d (canonical n))
          [ gate; source; bulk ]
      | e ->
        (match E.nodes e with
         | a :: rest ->
           List.iter (fun b -> Uf.union uf (canonical a) (canonical b)) rest
         | [] -> ()))
    (elements ctx);
  List.filter_map
    (fun e ->
      match e with
      | E.Isource { name; np; nn; _ }
        when not (Uf.connected uf (canonical np) (canonical nn)) ->
        Some
          (diag ?loc:(loc_of ctx name) Rule.Warning "isource-cutset"
             (Rule.Element name)
             "the current of %s has no return path (every connection \
              between %s and %s is a current source): only the gmin \
              floor absorbs it, so voltages reach I/gmin"
             name (canonical np) (canonical nn))
      | _ -> None)
    (elements ctx)

(* ------------------------------------------------------------------ *)
(* duplicate-element: identical kind, nodes and value — a double
   merge.  Distinct values in parallel are legitimate and stay
   silent. *)

let signature e =
  let f = Printf.sprintf "%.17g" in
  match e with
  | E.Resistor { n1; n2; ohms; _ } -> Some ("r|" ^ n1 ^ "|" ^ n2 ^ "|" ^ f ohms)
  | E.Capacitor { n1; n2; farads; _ } ->
    Some ("c|" ^ n1 ^ "|" ^ n2 ^ "|" ^ f farads)
  | E.Inductor { n1; n2; henries; _ } ->
    Some ("l|" ^ n1 ^ "|" ^ n2 ^ "|" ^ f henries)
  | E.Vccs { np; nn; cp; cn; gm; _ } ->
    Some (String.concat "|" [ "g"; np; nn; cp; cn; f gm ])
  | E.Vcvs { np; nn; cp; cn; gain; _ } ->
    Some (String.concat "|" [ "e"; np; nn; cp; cn; f gain ])
  | E.Mosfet { drain; gate; source; bulk; model; w; l; mult; _ } ->
    Some
      (String.concat "|"
         [ "m"; drain; gate; source; bulk; model.C.Mos_model.name; f w; f l;
           string_of_int mult ])
  | E.Varactor { n1; n2; model; mult; _ } ->
    Some
      (String.concat "|"
         [ "y"; n1; n2; model.C.Varactor_model.name; string_of_int mult ])
  | E.Vsource _ | E.Isource _ ->
    (* stimulus waveforms rarely collide by accident *)
    None

let duplicate_elements ctx =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun e ->
      match signature e with
      | None -> None
      | Some key -> (
        match Hashtbl.find_opt seen key with
        | None ->
          Hashtbl.add seen key (E.name e);
          None
        | Some first ->
          Some
            (diag
               ?loc:(loc_of ctx (E.name e))
               Rule.Warning "duplicate-element"
               (Rule.Element (E.name e))
               "%s duplicates %s exactly (same kind, nodes and value) — \
                was one model merged twice?"
               (E.name e) first)))
    (elements ctx)

(* ------------------------------------------------------------------ *)
(* shorted-element *)

let shorted_elements ctx =
  List.filter_map
    (fun e ->
      let name = E.name e in
      let shorted a b what =
        if canonical a = canonical b then
          Some
            (diag ?loc:(loc_of ctx name) Rule.Warning "shorted-element"
               (Rule.Element name) "%s has %s on the same node (%s)" name
               what (canonical a))
        else None
      in
      match e with
      | E.Resistor { n1; n2; _ } | E.Capacitor { n1; n2; _ }
      | E.Inductor { n1; n2; _ } | E.Varactor { n1; n2; _ } ->
        shorted n1 n2 "both terminals"
      | E.Vsource { np; nn; _ } | E.Isource { np; nn; _ } ->
        shorted np nn "both terminals"
      | E.Mosfet { drain; source; _ } ->
        shorted drain source "drain and source"
      | E.Vccs { cp; cn; _ } -> shorted cp cn "both controlling pins"
      | E.Vcvs _ -> None)
    (elements ctx)

(* ------------------------------------------------------------------ *)
(* floating-gate / floating-body: a gate (bulk) node is floating when
   every terminal touching it is another gate (bulk) — no element
   defines its potential *)

type touch = Gate | Bulk | Other

let terminal_touches ctx =
  let touches : (string, touch list) Hashtbl.t = Hashtbl.create 64 in
  let add n t =
    if not (E.is_ground n) then
      Hashtbl.replace touches n
        (t :: Option.value ~default:[] (Hashtbl.find_opt touches n))
  in
  List.iter
    (fun e ->
      match e with
      | E.Mosfet { drain; gate; source; bulk; _ } ->
        add drain Other;
        add gate Gate;
        add source Other;
        add bulk Bulk
      | e -> List.iter (fun n -> add n Other) (E.nodes e))
    (elements ctx);
  touches

let floating_terminals which code what ctx =
  let touches = terminal_touches ctx in
  let floating n =
    match Hashtbl.find_opt touches n with
    | None -> false (* ground *)
    | Some ts -> List.for_all (fun t -> t = which) ts
  in
  List.filter_map
    (fun e ->
      match e with
      | E.Mosfet { name; gate; bulk; _ } ->
        let n = if which = Gate then gate else bulk in
        if floating n then
          Some
            (diag ?loc:(loc_of ctx name) Rule.Warning code (Rule.Node n)
               "%s of %s (node %s) is floating: nothing defines its \
                potential"
               what name n)
        else None
      | _ -> None)
    (elements ctx)

let floating_gates = floating_terminals Gate "floating-gate" "the gate"
let floating_bodies = floating_terminals Bulk "floating-body" "the bulk"

(* ------------------------------------------------------------------ *)
(* extreme-value: unit-suffix slips in component values and device
   geometry *)

let reduced_prefix = "red_"

(* SPICE scale suffixes a slipped card most likely dropped *)
let si_suffixes =
  [ ("f", 1e-15); ("p", 1e-12); ("n", 1e-9); ("u", 1e-6); ("m", 1e-3);
    ("k", 1e3); ("meg", 1e6); ("g", 1e9) ]

(* The classic extreme-value cause is a dropped scale suffix: the
   mantissa was right, the multiplier missing.  Suggest the suffix
   that lands the value closest (log-wise) to the geometric center of
   the plausible range; [None] when no suffix rescues it (then the
   value itself, not its scale, is wrong). *)
let suggest_suffix v lo hi =
  let center = sqrt (lo *. hi) in
  let score f = Float.abs (Float.log10 (v *. f /. center)) in
  List.filter (fun (_, f) -> v *. f >= lo && v *. f <= hi) si_suffixes
  |> function
  | [] -> None
  | c0 :: rest ->
    Some
      (List.fold_left
         (fun best c -> if score (snd c) < score (snd best) then c else best)
         c0 rest)

let extreme_values ctx =
  List.concat_map
    (fun e ->
      let name = E.name e in
      let out kind v lo hi unit =
        (* R / C ranges are checked on |v|: reduced-order macromodel
           branches (Snoise.Reduced_model, prefix "red_") legitimately
           carry negative values, and those are exempt entirely —
           their magnitudes are mathematical, not physical. *)
        if v < lo || v > hi then
          let hint =
            match
              if unit = "" then None else suggest_suffix v lo hi
            with
            | Some (sfx, f) ->
              Printf.sprintf " — was the %g meant as %g%s (%g %s)?" v v sfx
                (v *. f) unit
            | None -> ""
          in
          [ diag ?loc:(loc_of ctx name) Rule.Warning "extreme-value"
              (Rule.Element name) "%s: %s %g %s is outside [%g, %g]%s" name
              kind v unit lo hi hint ]
        else []
      in
      let reduced =
        String.length name >= String.length reduced_prefix
        && String.sub name 0 (String.length reduced_prefix) = reduced_prefix
      in
      match e with
      | _ when reduced -> []
      | E.Resistor { ohms; _ } -> out "resistance" (Float.abs ohms) 1e-6 1e11 "ohm"
      | E.Capacitor { farads; _ } -> out "capacitance" (Float.abs farads) 1e-18 1.0 "F"
      | E.Inductor { henries; _ } -> out "inductance" henries 1e-12 1e3 "H"
      | E.Mosfet { w; l; mult; _ } ->
        out "channel width W" w 1e-8 1e-2 "m"
        @ out "channel length L" l 1e-8 1e-3 "m"
        @ out "multiplicity M" (float_of_int mult) 1.0 1e4 ""
      | E.Varactor { mult; _ } ->
        out "multiplicity M" (float_of_int mult) 1.0 1e4 ""
      | E.Vsource _ | E.Isource _ | E.Vccs _ | E.Vcvs _ -> [])
    (elements ctx)

(* ------------------------------------------------------------------ *)
(* merge-binding rules.  Snoise.Merge names the elements it renders
   from the extracted models with fixed prefixes: macromodel
   conductances and well capacitors, observation-only back-gate probe
   ports, and well ports tied through their junction capacitor.
   test_analysis.ml checks that the merged decks carry them and lint
   without a port-binding warning. *)

let substrate_prefixes = [ "rsub_"; "cwell_" ]
let probe_port_prefix = "backgate:"
let well_port_prefix = "nwell:"

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let is_substrate_element name = List.exists (fun p -> has_prefix p name) substrate_prefixes

(* unbound-port: a substrate port node that never met anything but the
   macromodel itself.  Back-gate probes are observation-only by
   design and exempt. *)

let port_bindings ctx =
  (* node -> (substrate touches, other touches) *)
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 64 in
  let touches n = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl n) in
  List.iter
    (fun e ->
      let sub = is_substrate_element (E.name e) in
      List.iter
        (fun n ->
          if not (E.is_ground n) then begin
            let s, o = touches n in
            Hashtbl.replace tbl n
              (if sub then (s + 1, o) else (s, o + 1))
          end)
        (E.nodes e))
    (elements ctx);
  (* A well port binds through its own junction capacitor: a [cwell_*]
     branch from [nwell:<net>] counts as a circuit touch of the port
     when its other terminal is a circuit node, one that a
     non-substrate element touches.  A well whose net floats stays
     unbound. *)
  let circuit n = (not (E.is_ground n)) && snd (touches n) > 0 in
  let bound_wells =
    List.concat_map
      (fun e ->
        match E.nodes e with
        | [ a; b ] when has_prefix "cwell_" (E.name e) ->
          List.filter_map
            (fun (port, other) ->
              if has_prefix well_port_prefix port && circuit other then
                Some port
              else None)
            [ (a, b); (b, a) ]
        | _ -> [])
      (elements ctx)
  in
  List.iter
    (fun port ->
      let s, o = touches port in
      Hashtbl.replace tbl port (s, o + 1))
    bound_wells;
  tbl

let unbound_ports ctx =
  let tbl = port_bindings ctx in
  Hashtbl.fold
    (fun node (sub, other) acc ->
      if sub > 0 && other = 0 && not (has_prefix probe_port_prefix node) then
        diag Rule.Warning "unbound-port" (Rule.Port node)
          "substrate port %s is not bound to any circuit element — did \
           the port name match its circuit node?"
          node
        :: acc
      else acc)
    tbl []

(* untied-ring: a resistive substrate port (guard ring, substrate tap)
   that is bound to the circuit but whose non-substrate surroundings
   have no DC path to ground: the ring only "grounds" through the
   silicon it is supposed to shield. *)

let untied_rings ctx =
  let tbl = port_bindings ctx in
  let uf = Uf.create () in
  List.iter
    (fun e ->
      if not (is_substrate_element (E.name e)) then
        List.iter
          (fun (a, b) -> Uf.union uf (canonical a) (canonical b))
          (dc_conducting_edges e))
    (elements ctx);
  Hashtbl.fold
    (fun node (sub, other) acc ->
      if
        sub > 0 && other > 0
        && (not (has_prefix probe_port_prefix node))
        && (not (has_prefix well_port_prefix node))
        && not (Uf.connected uf node "0")
      then
        diag Rule.Warning "untied-ring" (Rule.Port node)
          "guard ring / substrate tap %s has no metal DC path to ground \
           — it is tied only through the substrate"
          node
        :: acc
      else acc)
    tbl []

(* ------------------------------------------------------------------ *)
(* extract-tile-degenerate: an [*%snoise extract tiles=TXxTY ...]
   directive whose tiling would leave a tile with zero cells (more
   tiles than grid cells) or guarantee a tile with zero ports
   (pigeonhole against the deck's substrate port count).  The
   geometric judgement itself lives in Sn_substrate.Tiling.degenerate,
   shared with the extractor's runtime warning. *)

let parse_pair s =
  match String.split_on_char 'x' (String.lowercase_ascii s) with
  | [ a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some a, Some b -> Some (a, b)
    | _ -> None)
  | _ -> None

(* Flow.default_options' lateral grid, assumed when the directive
   does not pin grid=NXxNY *)
let default_extract_grid = (48, 48)

let extract_tile_degenerate ctx =
  (* substrate port count of the deck: distinct non-ground nodes the
     rendered macromodel elements touch *)
  let ports =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun e ->
        if is_substrate_element (E.name e) then
          List.iter
            (fun n -> if not (E.is_ground n) then Hashtbl.replace tbl n ())
            (E.nodes e))
      (elements ctx);
    Hashtbl.length tbl
  in
  List.concat_map
    (fun (d : C.Netlist.directive) ->
      if d.C.Netlist.verb <> "extract" then []
      else
        match List.assoc_opt "tiles" d.C.Netlist.args with
        | None -> []
        | Some tv -> (
          match parse_pair tv with
          | None ->
            [ diag Rule.Warning "extract-tile-degenerate" Rule.Deck
                "extract directive: cannot parse tiles=%S (expected \
                 TXxTY, e.g. tiles=2x2)"
                tv ]
          | Some tiles -> (
            let grid =
              Option.value ~default:default_extract_grid
                (Option.bind
                   (List.assoc_opt "grid" d.C.Netlist.args)
                   parse_pair)
            in
            match Sn_substrate.Tiling.degenerate ~tiles ~grid ~ports with
            | Some why ->
              [ diag Rule.Warning "extract-tile-degenerate" Rule.Deck
                  "extract directive: %s" why ]
            | None -> [])))
    (C.Netlist.directives ctx.Rule.netlist)

(* ------------------------------------------------------------------ *)
(* unknown-pragma: a suppression that can never match a rule is a
   typo that silently disables nothing *)

let rec registry =
  [
    { Rule.code = "conditioning-span"; severity = Rule.Warning;
      summary =
        "a node whose incident conductance magnitudes span enough \
         decades to cancel the LU pivot";
      check = Numeric.check_conditioning };
    { Rule.code = "dangling-node"; severity = Rule.Warning;
      summary = "a node connected to exactly one element terminal";
      check = dangling_nodes };
    { Rule.code = "duplicate-element"; severity = Rule.Warning;
      summary = "two elements with identical kind, nodes and value";
      check = duplicate_elements };
    { Rule.code = "extract-tile-degenerate"; severity = Rule.Warning;
      summary =
        "an extract directive whose tiling leaves a tile without cells \
         or ports";
      check = extract_tile_degenerate };
    { Rule.code = "extreme-value"; severity = Rule.Warning;
      summary = "component value or device geometry outside its plausible range";
      check = extreme_values };
    { Rule.code = "floating-body"; severity = Rule.Warning;
      summary = "a MOSFET bulk node touched only by bulk terminals";
      check = floating_bodies };
    { Rule.code = "floating-gate"; severity = Rule.Warning;
      summary = "a MOSFET gate node touched only by gate terminals";
      check = floating_gates };
    { Rule.code = "isource-cutset"; severity = Rule.Warning;
      summary = "a current source whose current has no return path";
      check = isource_cutsets };
    { Rule.code = "no-ground-path"; severity = Rule.Error;
      summary = "a connected component with no DC path to ground";
      check = no_ground_path };
    { Rule.code = "non-passive-pool"; severity = Rule.Error;
      summary =
        "the deck's R/C pool assembles into an indefinite (non-passive) \
         conductance or capacitance matrix";
      check = Numeric.check_passivity };
    { Rule.code = "shorted-element"; severity = Rule.Warning;
      summary = "an element with all terminals on one node";
      check = shorted_elements };
    { Rule.code = "stiff-transient"; severity = Rule.Warning;
      summary =
        "an RC time-constant spread too wide for any transient step to \
         both resolve and cover";
      check = Numeric.check_stiffness };
    { Rule.code = "structural-singular"; severity = Rule.Error;
      summary = "the MNA pattern admits no perfect row/column matching";
      check = Structural.check };
    { Rule.code = "unbound-port"; severity = Rule.Warning;
      summary = "a substrate port that never bound to a circuit element";
      check = unbound_ports };
    { Rule.code = "unknown-pragma"; severity = Rule.Warning;
      summary = "an ignore pragma naming a rule code that does not exist";
      check = unknown_pragmas };
    { Rule.code = "untied-ring"; severity = Rule.Warning;
      summary = "a guard ring / substrate tap with no metal path to ground";
      check = untied_rings };
    { Rule.code = "vsource-loop"; severity = Rule.Error;
      summary = "a cycle of ideal voltage sources / inductors";
      check = vsource_loops };
  ]

and unknown_pragmas ctx =
  let known code = List.exists (fun r -> r.Rule.code = code) registry in
  List.filter_map
    (fun (p : C.Netlist.pragma) ->
      if known p.C.Netlist.ignore_code then None
      else
        Some
          (diag ?loc:p.C.Netlist.ignore_loc Rule.Warning "unknown-pragma"
             Rule.Deck
             "pragma ignores unknown rule code %S (known codes: see \
              docs/LINT.md)"
             p.C.Netlist.ignore_code))
    (C.Netlist.pragmas ctx.Rule.netlist)

