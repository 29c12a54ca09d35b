(* Exact / rank-k reduced forms of extracted passive networks.

   The exact form stores the R/C elements as extracted.  The reduced
   form stores the PRIMA-projected (Ĝ, Ĉ) pencil (Krylov.reduce) plus
   the port names, and realizes back into R/C branches on demand so
   the rest of the engine never learns a new element kind. *)

module C = Sn_circuit
module N = Sn_numerics

let src = Logs.Src.create "snoise.reduce" ~doc:"Model-order reduction"

module Log = (val Logs.src_log src : Logs.LOG)

type order_spec = Fixed of int | Auto of float

type config = {
  order : order_spec;
  s0_hz : float;
  band : float * float;
}

let default_config = { order = Fixed 2; s0_hz = 1e8; band = (1e6, 1e10) }

type knob = Order | Tol | S0

let knob_name = function Order -> "order" | Tol -> "tol" | S0 -> "s0"

let config_of_knobs ?(name = knob_name) ?order ?tol ?s0_hz () =
  let check knob ok what = function
    | Some v when not (ok v) ->
      Error (Printf.sprintf "%s: expected %s, got %g" (name knob) what v)
    | _ -> Ok ()
  in
  let ( let* ) = Result.bind in
  let* () =
    check Order
      (fun v -> Float.is_integer v && v >= 1.0 && v <= 1024.0)
      "an integer order in 1..1024" order
  in
  let* () =
    check Tol (fun v -> v > 0.0 && v < 1.0) "a relative tolerance in (0, 1)" tol
  in
  let* () = check S0 (fun v -> v > 0.0) "an expansion point in Hz > 0" s0_hz in
  let with_order order =
    Ok
      (Some
         { default_config with
           order;
           s0_hz = Option.value s0_hz ~default:default_config.s0_hz })
  in
  match (order, tol) with
  | Some k, None -> with_order (Fixed (int_of_float k))
  | None, Some e -> with_order (Auto e)
  | Some _, Some _ ->
    Error (Printf.sprintf "%s conflicts with %s" (name Order) (name Tol))
  | None, None when s0_hz <> None ->
    Error
      (Printf.sprintf "%s needs %s or %s" (name S0) (name Order) (name Tol))
  | None, None -> Ok None

let config_digest c =
  let order =
    match c.order with
    | Fixed k -> Printf.sprintf "fixed:%d" k
    | Auto tol -> Printf.sprintf "auto:%.17g" tol
  in
  Printf.sprintf "prima;order=%s;s0=%.17g;band=%.17g:%.17g" order c.s0_hz
    (fst c.band) (snd c.band)

type stats = {
  ports : int;
  internal : int;
  rank : int;
  order : int;
  build_seconds : float;
  est_error : float;
}

type form = Exact | Reduced of { result : N.Krylov.result; stats : stats }

type t = {
  port_names : string array;
  exact : C.Element.t list;  (** always the as-extracted elements *)
  form : form;
}

let is_passive = function
  | C.Element.Resistor _ | C.Element.Capacitor _ -> true
  | _ -> false

let of_elements ~ports els =
  List.iter
    (fun e ->
      if not (is_passive e) then
        invalid_arg
          (Printf.sprintf "Reduced_model.of_elements: %s is not an R/C element"
             (C.Element.name e)))
    els;
  let touched = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter
        (fun n -> if not (C.Element.is_ground n) then Hashtbl.replace touched n ())
        (C.Element.nodes e))
    els;
  let port_names =
    ports
    |> List.filter (fun n -> not (C.Element.is_ground n))
    |> List.fold_left (fun acc n -> if List.mem n acc then acc else acc @ [ n ]) []
    |> Array.of_list
  in
  Array.iter
    (fun n ->
      if not (Hashtbl.mem touched n) then
        invalid_arg
          (Printf.sprintf "Reduced_model.of_elements: port %S touches no element"
             n))
    port_names;
  { port_names; exact = els; form = Exact }

let ports t = Array.copy t.port_names
let stats t = match t.form with Exact -> None | Reduced r -> Some r.stats

(* Assemble the (G, C) pencil of the pool over ports-first node
   ordering; returns the index map alongside. *)
let assemble t =
  let index = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) t.port_names;
  let next = ref (Array.length t.port_names) in
  let node_id n =
    match Hashtbl.find_opt index n with
    | Some i -> i
    | None ->
      let i = !next in
      Hashtbl.replace index n i;
      incr next;
      i
  in
  (* internal nodes in sorted order for deterministic assembly *)
  let internal =
    List.concat_map C.Element.nodes t.exact
    |> List.filter (fun n ->
           (not (C.Element.is_ground n)) && not (Hashtbl.mem index n))
    |> List.sort_uniq String.compare
  in
  List.iter (fun n -> ignore (node_id n)) internal;
  let n = !next in
  let gb = N.Sparse.builder n n and cb = N.Sparse.builder n n in
  let stamp b n1 n2 v =
    let g1 = C.Element.is_ground n1 and g2 = C.Element.is_ground n2 in
    if not (g1 && g2) then begin
      if not g1 then N.Sparse.add b (node_id n1) (node_id n1) v;
      if not g2 then N.Sparse.add b (node_id n2) (node_id n2) v;
      if (not g1) && not g2 then begin
        N.Sparse.add b (node_id n1) (node_id n2) (-.v);
        N.Sparse.add b (node_id n2) (node_id n1) (-.v)
      end
    end
  in
  List.iter
    (function
      | C.Element.Resistor { n1; n2; ohms; _ } -> stamp gb n1 n2 (1.0 /. ohms)
      | C.Element.Capacitor { n1; n2; farads; _ } -> stamp cb n1 n2 farads
      | _ -> assert false)
    t.exact;
  (N.Sparse.finalize gb, N.Sparse.finalize cb, n)

let hat_admittance (r : N.Krylov.result) ~omega =
  N.Krylov.port_admittance ~g:r.N.Krylov.ghat ~c:r.N.Krylov.chat
    ~ports:(Array.init r.N.Krylov.nports (fun i -> i))
    ~omega

let port_admittance t ~freq_hz =
  let omega = 2.0 *. Float.pi *. freq_hz in
  match t.form with
  | Reduced { result; _ } -> hat_admittance result ~omega
  | Exact ->
    let g, c, _n = assemble t in
    N.Krylov.port_admittance ~g:(N.Sparse.to_dense g)
      ~c:(N.Sparse.to_dense c)
      ~ports:(Array.init (Array.length t.port_names) (fun i -> i))
      ~omega

(* Max entrywise |y1 - y2| relative to the largest |y2| entry. *)
let rel_diff y1 y2 =
  let p = Array.length y2 in
  let scale = ref 0.0 and diff = ref 0.0 in
  for a = 0 to p - 1 do
    for b = 0 to p - 1 do
      scale := Float.max !scale (Complex.norm y2.(a).(b));
      diff := Float.max !diff (Complex.norm (Complex.sub y1.(a).(b) y2.(a).(b)))
    done
  done;
  if !scale > 0.0 then !diff /. !scale else !diff

let probe_freqs (lo, hi) =
  let lo = Float.max lo 1.0 and k = 5 in
  let hi = Float.max hi (lo *. 10.) in
  Array.init k (fun i ->
      lo *. ((hi /. lo) ** (float_of_int i /. float_of_int (k - 1))))

let reduce ?(config = default_config) t =
  let p = Array.length t.port_names in
  let g, c, n = assemble t in
  let internal = n - p in
  let exact_t = { t with form = Exact } in
  if internal = 0 then exact_t
  else
    let s0 = 2.0 *. Float.pi *. Float.max config.s0_hz 0.0 in
    let run order =
      N.Krylov.reduce ~s0 ~order ~g ~c (Array.init p (fun i -> i))
    in
    match
      match config.order with
      | Fixed k -> (run (max 1 k), Float.nan)
      | Auto tol ->
        let probes = probe_freqs config.band in
        let eval r =
          Array.map (fun f -> hat_admittance r ~omega:(2.0 *. Float.pi *. f))
            probes
        in
        let rec grow order prev prev_y =
          if order > 32 || prev.N.Krylov.rank >= internal then (prev, 0.0)
          else
            let r = run order in
            let y = eval r in
            let err =
              Array.to_list (Array.map2 rel_diff prev_y y)
              |> List.fold_left Float.max 0.0
            in
            if err <= tol || r.N.Krylov.rank = prev.N.Krylov.rank then (r, err)
            else grow (order + 1) r y
        in
        let r1 = run 1 in
        grow 2 r1 (eval r1)
    with
    | exception N.Splu.Singular k ->
      Log.warn (fun m ->
          m "reduction skipped: internal pencil singular at unknown %d \
             (island with no port/ground path); keeping exact form" k);
      exact_t
    | exception N.Lu.Singular k ->
      Log.warn (fun m ->
          m "reduction skipped: singular pivot %d during error probe; \
             keeping exact form" k);
      exact_t
    | result, est_error ->
      if result.N.Krylov.rank >= internal then begin
        Log.info (fun m ->
            m "reduction found no win: rank %d >= %d internal unknowns; \
               keeping exact form" result.N.Krylov.rank internal);
        exact_t
      end
      else begin
        let stats =
          {
            ports = p;
            internal;
            rank = result.N.Krylov.rank;
            order = result.N.Krylov.order;
            build_seconds = result.N.Krylov.build_seconds;
            est_error;
          }
        in
        Log.info (fun m ->
            m "reduced %d ports + %d internal -> rank %d (order %d, %.1f ms)"
              p internal stats.rank stats.order
              (1e3 *. stats.build_seconds));
        { t with form = Reduced { result; stats } }
      end

(* Realize a symmetric admittance-like matrix as two-terminal branches:
   off-diagonal h_ij is branch value -h_ij between i and j, the row sum
   is the branch to ground.  [emit] receives (node_i, node_j) names
   with [""] meaning ground. *)
let realize_branches h names emit =
  let n = Array.length names in
  let scale = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      scale := Float.max !scale (Float.abs (N.Mat.get h i j))
    done
  done;
  let drop = 1e-14 *. !scale in
  for i = 0 to n - 1 do
    let rowsum = ref 0.0 in
    for j = 0 to n - 1 do
      rowsum := !rowsum +. N.Mat.get h i j;
      if j > i then begin
        let v = -.N.Mat.get h i j in
        if Float.abs v > drop then emit names.(i) names.(j) v
      end
    done;
    if Float.abs !rowsum > drop then emit names.(i) "" !rowsum
  done

let to_elements ?(prefix = "red_") t =
  match t.form with
  | Exact -> t.exact
  | Reduced { result; _ } ->
    let p = result.N.Krylov.nports and k = result.N.Krylov.rank in
    let names =
      Array.init (p + k) (fun i ->
          if i < p then t.port_names.(i)
          else Printf.sprintf "%sx%d" prefix (i - p))
    in
    let acc = ref [] and ng = ref 0 and nc = ref 0 in
    realize_branches result.N.Krylov.ghat names (fun a b gb ->
        let name = Printf.sprintf "%sg%d" prefix !ng in
        incr ng;
        let n2 = if b = "" then "0" else b in
        acc := C.Element.Resistor { name; n1 = a; n2; ohms = 1.0 /. gb } :: !acc);
    realize_branches result.N.Krylov.chat names (fun a b farads ->
        let name = Printf.sprintf "%sc%d" prefix !nc in
        incr nc;
        let n2 = if b = "" then "0" else b in
        acc := C.Element.Capacitor { name; n1 = a; n2; farads } :: !acc);
    List.rev !acc

(* Certification context: ties a pencil certificate to this model's
   port set, so a certificate from a different reduction never
   verifies against it. *)
let cert_context t =
  "reduced-pencil:" ^ String.concat "," (Array.to_list t.port_names)

let certificate t =
  match t.form with
  | Exact -> None
  | Reduced { result; _ } -> (
    let context = cert_context t in
    match
      ( N.Passivity.certify ~context result.N.Krylov.ghat,
        N.Passivity.certify ~context result.N.Krylov.chat )
    with
    | Some cg, Some cc -> Some (cg, cc)
    | _ -> None)

let verify_certificate t (cg, cc) =
  match t.form with
  | Exact -> false
  | Reduced { result; _ } ->
    let context = cert_context t in
    N.Passivity.verify ~context result.N.Krylov.ghat cg
    && N.Passivity.verify ~context result.N.Krylov.chat cc

let directive_keeps nl =
  C.Netlist.directives nl
  |> List.concat_map (fun d ->
         if String.equal d.C.Netlist.verb "reduce" then
           List.concat_map
             (fun (k, v) ->
               if String.equal k "keep" then String.split_on_char ',' v else [])
             d.C.Netlist.args
         else [])
  |> List.filter (fun s -> s <> "")

let reduce_deck_certified ?(config = default_config) ?(keep = []) nl =
  let passive, active =
    List.partition is_passive (C.Netlist.elements nl)
  in
  if passive = [] then (nl, None)
  else begin
    let keep = keep @ directive_keeps nl in
    let active_nodes = Hashtbl.create 64 in
    List.iter
      (fun e ->
        List.iter (fun n -> Hashtbl.replace active_nodes n ())
          (C.Element.nodes e))
      active;
    List.iter (fun n -> Hashtbl.replace active_nodes n ()) keep;
    let passive_nodes =
      List.concat_map C.Element.nodes passive
      |> List.filter (fun n -> not (C.Element.is_ground n))
      |> List.sort_uniq String.compare
    in
    let ports_list =
      List.filter (fun n -> Hashtbl.mem active_nodes n) passive_nodes
    in
    let internal = List.length passive_nodes - List.length ports_list in
    if internal = 0 then (nl, None)
    else begin
      let model = reduce ~config (of_elements ~ports:ports_list passive) in
      match model.form with
      | Exact -> (nl, None)
      | Reduced _ ->
        ( C.Netlist.create ~title:(C.Netlist.title nl)
            ~pragmas:(C.Netlist.pragmas nl)
            ~directives:(C.Netlist.directives nl)
            ~locs:(C.Netlist.element_locs nl)
            (active @ to_elements model),
          Some (model, certificate model) )
    end
  end

