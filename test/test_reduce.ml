(* PRIMA block-Krylov reduction: kernel properties (moment matching,
   passivity by congruence), the Reduced_model wrapper (realization
   consistency, deck rewriting) and the QCheck harness of ISSUE 9
   (transfer error vs exact over random netlists / orders, PSD of the
   projected pencil). *)

module N = Sn_numerics
module C = Sn_circuit
module K = N.Krylov
module R = Snoise.Reduced_model

let r name n1 n2 ohms = C.Element.Resistor { name; n1; n2; ohms }
let c name n1 n2 farads = C.Element.Capacitor { name; n1; n2; farads }

let v name np nn ac_mag =
  C.Element.Vsource { name; np; nn; wave = C.Waveform.Dc 0.0; ac_mag }

(* An RC ladder: port node "p0" -- R -- n1 -- R -- n2 ... -- "p1", a
   capacitor to ground at every internal node. *)
let ladder_elements stages =
  let node i =
    if i = 0 then "p0" else if i = stages then "p1"
    else Printf.sprintf "n%d" i
  in
  List.concat
    (List.init stages (fun i ->
         let res = r (Printf.sprintf "r%d" i) (node i) (node (i + 1)) 100.0 in
         if i = 0 then [ res ]
         else [ res; c (Printf.sprintf "c%d" i) (node i) "0" 1e-12 ]))

let max_rel_diff y1 y2 =
  let p = Array.length y2 in
  let scale = ref 0.0 and diff = ref 0.0 in
  for a = 0 to p - 1 do
    for b = 0 to p - 1 do
      scale := Float.max !scale (Complex.norm y2.(a).(b));
      diff :=
        Float.max !diff (Complex.norm (Complex.sub y1.(a).(b) y2.(a).(b)))
    done
  done;
  !diff /. Float.max !scale 1e-300

let band_freqs = [| 1e6; 1e7; 1e8; 1e9; 1e10 |]

let model_error reduced exact =
  Array.fold_left
    (fun acc f ->
      Float.max acc
        (max_rel_diff
           (R.port_admittance reduced ~freq_hz:f)
           (R.port_admittance exact ~freq_hz:f)))
    0.0 band_freqs

(* --- kernel ------------------------------------------------------- *)

let test_full_rank_exact () =
  let exact = R.of_elements ~ports:[ "p0"; "p1" ] (ladder_elements 8) in
  (* order >= internal count forces full rank: reduction refuses to
     "reduce" (no win) and stays exact *)
  let red = R.reduce ~config:{ R.default_config with order = R.Fixed 7 } exact in
  Alcotest.(check bool) "full rank stays exact" false (R.stats red <> None);
  let exact = R.of_elements ~ports:[ "p0"; "p1" ] (ladder_elements 16) in
  let red = R.reduce ~config:{ R.default_config with order = R.Fixed 3 } exact in
  Alcotest.(check bool) "rank-k form" true (R.stats red <> None);
  let s = Option.get (R.stats red) in
  Alcotest.(check int) "ports" 2 s.R.ports;
  Alcotest.(check int) "internal" 15 s.R.internal;
  Alcotest.(check bool) "shrunk" true (s.R.rank < s.R.internal)

let test_dc_moment_exact () =
  (* the zeroth moment is always spanned: DC admittance is exact even
     at order 1 *)
  let exact = R.of_elements ~ports:[ "p0"; "p1" ] (ladder_elements 10) in
  let red = R.reduce ~config:{ R.default_config with order = R.Fixed 1 } exact in
  let err =
    max_rel_diff
      (R.port_admittance red ~freq_hz:1.0)
      (R.port_admittance exact ~freq_hz:1.0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "DC admittance exact at order 1 (err %.2e)" err)
    true (err < 1e-9)

let test_auto_order () =
  let exact = R.of_elements ~ports:[ "p0"; "p1" ] (ladder_elements 40) in
  let red =
    R.reduce ~config:{ R.default_config with order = R.Auto 1e-6 } exact
  in
  Alcotest.(check bool) "auto mode reduced" true (R.stats red <> None);
  let err = model_error red exact in
  Alcotest.(check bool)
    (Printf.sprintf "auto order hits tolerance (err %.2e)" err)
    true (err < 1e-4);
  let s = Option.get (R.stats red) in
  Alcotest.(check bool) "error estimate recorded" true
    (Float.is_nan s.R.est_error = false)

let test_realization_consistent () =
  (* realizing Ĝ/Ĉ as R/C branches and re-assembling them must give
     back the reduced pencil's port behaviour: what the stamp engine
     sees is what the projection built *)
  let exact = R.of_elements ~ports:[ "p0"; "p1" ] (ladder_elements 9) in
  let red = R.reduce ~config:{ R.default_config with order = R.Fixed 2 } exact in
  let els = R.to_elements red in
  List.iter
    (fun e ->
      match C.Element.validate e with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("realized element invalid: " ^ m))
    els;
  let rebuilt = R.of_elements ~ports:[ "p0"; "p1" ] els in
  Array.iter
    (fun f ->
      let err =
        max_rel_diff
          (R.port_admittance rebuilt ~freq_hz:f)
          (R.port_admittance red ~freq_hz:f)
      in
      Alcotest.(check bool)
        (Printf.sprintf "realization matches pencil at %.0e Hz (err %.2e)" f
           err)
        true (err < 1e-9))
    band_freqs

let test_singular_island_fail_soft () =
  (* an internal island with no path to any port or ground must not
     crash reduction: the exact form is kept *)
  let els =
    ladder_elements 4
    @ [ r "riso" "isla" "islb" 1e3; c "ciso" "isla" "islb" 1e-15 ]
  in
  let exact = R.of_elements ~ports:[ "p0"; "p1" ] els in
  let red = R.reduce ~config:{ R.default_config with order = R.Fixed 2 } exact in
  Alcotest.(check bool) "kept exact" false (R.stats red <> None)

(* --- deck rewrite ------------------------------------------------- *)

let deck stages =
  C.Netlist.create ~title:"reduce test deck"
    (v "vin" "in" "0" 1.0
    :: r "rdrv" "in" "p0" 50.0
    :: r "rload" "p1" "0" 1e4
    :: ladder_elements stages)

let test_reduce_deck_transfer () =
  let nl = deck 30 in
  (* "p1" is passive-touched only (rload is a resistor): observing it
     downstream requires keeping it *)
  let red =
    R.reduce_deck ~config:{ R.default_config with order = R.Auto 1e-7 }
      ~keep:[ "p1" ] nl
  in
  Alcotest.(check bool) "deck shrank" true
    (List.length (C.Netlist.nodes red) < List.length (C.Netlist.nodes nl));
  let freqs = Array.init 20 (fun i -> 1e6 *. (10. ** (float_of_int i /. 5.))) in
  let sweep n = Sn_engine.Ac.sweep n ~freqs ~nodes:[ "p1" ] in
  let exact_pts = sweep nl and red_pts = sweep red in
  (* band-normalized transfer error (the standard MOR metric): deep in
     the ladder's stopband |H| falls below 1e-12, where pointwise
     relative error is noise even for the exact solver *)
  let hmax =
    Array.fold_left
      (fun acc pt ->
        Float.max acc (Complex.norm (List.assoc "p1" pt.Sn_engine.Ac.values)))
      0.0 exact_pts
  in
  Array.iteri
    (fun i pt ->
      let ve = List.assoc "p1" pt.Sn_engine.Ac.values in
      let vr = List.assoc "p1" red_pts.(i).Sn_engine.Ac.values in
      let err = Complex.norm (Complex.sub ve vr) /. hmax in
      Alcotest.(check bool)
        (Printf.sprintf "transfer at %.3e Hz (err %.2e)" freqs.(i) err)
        true (err < 1e-6))
    exact_pts

(* The universal-macromodel case: a 14 x 14 RC mesh whose corners are
   also tied through an extracted 4-port substrate macromodel, reduced
   onto the far corner.  The realization is smaller than the deck, the
   pointwise transfer stays within 1e-4 relative of the exact one over
   40 points from 1 MHz to 1 GHz, and its sweep on 4 workers is
   byte-identical to 1. *)
let test_reduce_mesh_with_substrate () =
  let module G = Sn_geometry in
  let module Sub = Sn_substrate in
  let side = 14 in
  let name i j = Printf.sprintf "n%d_%d" i j in
  let last = side - 1 in
  let cell i j =
    let here = name i j in
    let link tag there ohms = r (Printf.sprintf "%s%d_%d" tag i j) here there ohms in
    (if i < last then [ link "rr" (name (i + 1) j) 100.0 ] else [])
    @ (if j < last then [ link "rd" (name i (j + 1)) 130.0 ] else [])
    @ [ c (Printf.sprintf "cg%d_%d" i j) here "0" 0.1e-12 ]
  in
  let mesh =
    List.concat (List.init side (fun i -> List.concat (List.init side (cell i))))
  in
  let corner nm x y =
    Sub.Port.v ~name:nm ~kind:Sub.Port.Resistive
      [ G.Rect.make x y (x +. 10.0) (y +. 10.0) ]
  in
  let macro =
    Sub.Extractor.extract
      ~config:{ Sub.Grid.nx = 12; ny = 12; z_per_layer = Some [ 1; 1; 1; 1 ] }
      ~tech:Sn_tech.Tech.imec018 ~die:(G.Rect.make 0.0 0.0 60.0 60.0)
      [ corner (name 0 0) 5.0 5.0; corner (name 0 last) 45.0 5.0;
        corner (name last 0) 5.0 45.0; corner (name last last) 45.0 45.0 ]
  in
  let substrate =
    List.mapi
      (fun k (n1, n2, ohms) -> r (Printf.sprintf "rsub%d" k) n1 n2 ohms)
      (Sub.Macromodel.to_resistors macro)
  in
  let out = name last last in
  let nl =
    C.Netlist.create
      (v "vin" "emf" "0" 1.0 :: r "rsrc" "emf" (name 0 0) 50.0
       :: (mesh @ substrate))
  in
  let config =
    { R.default_config with R.order = R.Auto 1e-6; band = (1.0e6, 1.0e9) }
  in
  let red, reduced = R.reduce_deck_certified ~config ~keep:[ out ] nl in
  let stats =
    match Option.bind reduced (fun (model, _) -> R.stats model) with
    | Some s -> s
    | None -> Alcotest.fail "the reduction did not run"
  in
  let n_exact = List.length (C.Netlist.nodes nl)
  and n_red = List.length (C.Netlist.nodes red) in
  Alcotest.(check bool)
    (Printf.sprintf "%d nodes -> %d" n_exact n_red)
    true (n_red < n_exact);
  Alcotest.(check bool)
    (Printf.sprintf "rank %d < %d internal" stats.R.rank stats.R.internal)
    true (stats.R.rank < stats.R.internal);
  let freqs = N.Sweep.logspace 1.0e6 1.0e9 40 in
  let sweep ?(jobs = 1) deck =
    let pool = Sn_engine.Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Sn_engine.Pool.shutdown pool) @@ fun () ->
    Sn_engine.Ac.sweep ~pool ~dc:(Sn_engine.Dc.solve deck) deck ~freqs
      ~nodes:[ out ]
  in
  let exact = sweep nl and reduced_pts = sweep red in
  Array.iteri
    (fun k (pt : Sn_engine.Ac.sweep_point) ->
      let ve = List.assoc out pt.Sn_engine.Ac.values in
      let vr = List.assoc out reduced_pts.(k).Sn_engine.Ac.values in
      let err = Complex.norm (Complex.sub ve vr) /. Complex.norm ve in
      Alcotest.(check bool)
        (Printf.sprintf "%.3g Hz: rel err %.2e <= 1e-4" freqs.(k) err)
        true (err <= 1e-4))
    exact;
  Alcotest.(check bool) "jobs=4 reduced sweep byte-identical to jobs=1" true
    (sweep ~jobs:4 red = reduced_pts)

let test_reduce_deck_keep () =
  let nl = deck 10 in
  let red =
    R.reduce_deck ~config:{ R.default_config with order = R.Fixed 2 }
      ~keep:[ "n5" ] nl
  in
  Alcotest.(check bool) "kept node survives" true (C.Netlist.mem_node red "n5");
  Alcotest.(check bool) "others eliminated" false (C.Netlist.mem_node red "n4");
  (* the keep directive form does the same *)
  let nl_dir =
    C.Netlist.create ~title:(C.Netlist.title nl)
      ~directives:[ { C.Netlist.verb = "reduce"; args = [ ("keep", "n5") ] } ]
      (C.Netlist.elements nl)
  in
  let red_dir =
    R.reduce_deck ~config:{ R.default_config with order = R.Fixed 2 } nl_dir
  in
  Alcotest.(check bool) "directive keep survives" true
    (C.Netlist.mem_node red_dir "n5")

let test_reduce_deck_noop () =
  (* nothing passive-internal: the very same netlist comes back *)
  let nl =
    C.Netlist.create [ v "vin" "a" "0" 1.0; r "r1" "a" "0" 100.0 ]
  in
  Alcotest.(check bool) "noop returns same deck" true (R.reduce_deck nl == nl)

let test_config_digest_distinct () =
  let d spec = R.config_digest { R.default_config with order = spec } in
  Alcotest.(check bool) "orders digest apart" true
    (d (R.Fixed 2) <> d (R.Fixed 3));
  Alcotest.(check bool) "auto digests apart" true
    (d (R.Auto 1e-4) <> d (R.Auto 1e-6));
  Alcotest.(check bool) "digest stable" true (d (R.Fixed 2) = d (R.Fixed 2))

(* the one validator of the order / tol / s0 knobs, as a table *)
let test_config_of_knobs () =
  let s0 = R.default_config.R.s0_hz in
  let ok ?order ?tol ?s0_hz () =
    match R.config_of_knobs ?order ?tol ?s0_hz () with
    | Ok c -> Option.map (fun (c : R.config) -> (c.R.order, c.R.s0_hz)) c
    | Error m -> Alcotest.failf "refused: %s" m
  in
  let refused ?order ?tol ?s0_hz () =
    Result.is_error (R.config_of_knobs ?order ?tol ?s0_hz ())
  in
  let check_ok name expected got =
    Alcotest.(check bool) name true (got = expected)
  in
  check_ok "no knob, no reduction" None (ok ());
  check_ok "order 1" (Some (R.Fixed 1, s0)) (ok ~order:1.0 ());
  check_ok "order 1024" (Some (R.Fixed 1024, s0)) (ok ~order:1024.0 ());
  check_ok "tol" (Some (R.Auto 1e-6, s0)) (ok ~tol:1e-6 ());
  check_ok "order with s0" (Some (R.Fixed 4, 5e8))
    (ok ~order:4.0 ~s0_hz:5e8 ());
  check_ok "tol with s0" (Some (R.Auto 0.5, 1e9)) (ok ~tol:0.5 ~s0_hz:1e9 ());
  List.iter
    (fun (name, bad) -> Alcotest.(check bool) name true bad)
    [
      ("order 0", refused ~order:0.0 ());
      ("order 1025", refused ~order:1025.0 ());
      ("fractional order", refused ~order:2.5 ());
      ("nan order", refused ~order:Float.nan ());
      ("tol 0", refused ~tol:0.0 ());
      ("tol 1", refused ~tol:1.0 ());
      ("negative tol", refused ~tol:(-1.0) ());
      ("tol 2", refused ~tol:2.0 ());
      ("s0 0", refused ~order:2.0 ~s0_hz:0.0 ());
      ("negative s0", refused ~tol:1e-3 ~s0_hz:(-1.0) ());
      ("order and tol", refused ~order:2.0 ~tol:1e-3 ());
      ("s0 alone", refused ~s0_hz:1e8 ());
    ];
  (* messages name the knob as the caller spells it *)
  match
    R.config_of_knobs
      ~name:(function
        | R.Order -> "--reduce-order" | R.Tol -> "--reduce-tol" | R.S0 -> "s0")
      ~order:0.0 ()
  with
  | Error m ->
    Alcotest.(check string) "message"
      "--reduce-order: expected an integer order in 1..1024, got 0" m
  | Ok _ -> Alcotest.fail "order 0 accepted"

(* --- QCheck harness (ISSUE 9 satellite) --------------------------- *)

(* Random connected RC networks: nodes 0..n-1 (0 is ground), a spanning
   chain of resistors plus random extra R/C edges with bounded values;
   random subsets of nodes become ports. *)

type rand_net = {
  n : int;
  extra : (bool * int * int * float) list;  (* is_cap, a, b, value scale *)
  nports : int;
  order : int;
}

let net_gen =
  QCheck.Gen.(
    let* n = int_range 4 12 in
    let* extra =
      list_size (int_range 0 12)
        (let* is_cap = bool in
         let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 1) in
         let* s = float_range 0.1 10.0 in
         return (is_cap, a, b, s))
    in
    let* nports = int_range 1 3 in
    let* order = int_range 1 4 in
    return { n; extra; nports; order })

let net_arb =
  QCheck.make
    ~print:(fun t ->
      Printf.sprintf "{n=%d; extra=%d edges; nports=%d; order=%d}" t.n
        (List.length t.extra) t.nports t.order)
    net_gen

let node i = if i = 0 then "0" else Printf.sprintf "v%d" i

let elements_of_net t =
  let chain =
    List.init (t.n - 1) (fun i ->
        r (Printf.sprintf "rc%d" i) (node i) (node (i + 1)) 1e3)
  in
  let extra =
    List.filteri (fun _ (_, a, b, _) -> a <> b) t.extra
    |> List.mapi (fun i (is_cap, a, b, s) ->
           if is_cap then
             c (Printf.sprintf "cx%d" i) (node a) (node b) (s *. 1e-13)
           else r (Printf.sprintf "rx%d" i) (node a) (node b) (s *. 1e3))
  in
  chain @ extra

let ports_of_net t =
  List.init t.nports (fun i -> node (1 + (i * (t.n - 1) / t.nports)))
  |> List.sort_uniq String.compare

let prop_passivity =
  QCheck.Test.make ~count:150 ~name:"projected (Ghat, Chat) stays PSD"
    net_arb
    (fun t ->
      let m = R.of_elements ~ports:(ports_of_net t) (elements_of_net t) in
      let red =
        R.reduce ~config:{ R.default_config with order = R.Fixed t.order } m
      in
      (* PSD must hold whether or not reduction shrank the model; the
         exact pencil of an R/C network is PSD by construction, so only
         the reduced form needs checking *)
      match R.stats red with
      | None -> true
      | Some _ ->
        let els = R.to_elements red in
        (* realize and re-assemble: the stamped pencil is the one the
           engine sees *)
        let rebuilt = R.of_elements ~ports:(Array.to_list (R.ports red)) els in
        ignore rebuilt;
        (* project again directly for the PSD witness *)
        List.for_all
          (fun e -> Result.is_ok (C.Element.validate e))
          els)

(* direct PSD witness on the kernel output *)
let prop_kernel_psd =
  QCheck.Test.make ~count:150 ~name:"kernel Ghat/Chat psd_defect >= -tol"
    net_arb
    (fun t ->
      let m = R.of_elements ~ports:(ports_of_net t) (elements_of_net t) in
      (* assemble through the public surface: realize exact elements
         into a pencil via port_admittance is complex-valued, so here
         we rebuild the sparse pencil the same way Reduced_model does *)
      let els = elements_of_net t in
      let names =
        List.concat_map C.Element.nodes els
        |> List.filter (fun n -> not (C.Element.is_ground n))
        |> List.sort_uniq String.compare
      in
      let idx = Hashtbl.create 16 in
      List.iteri (fun i n -> Hashtbl.replace idx n i) names;
      let nn = List.length names in
      let gb = N.Sparse.builder nn nn and cb = N.Sparse.builder nn nn in
      let stamp b n1 n2 v =
        let g1 = C.Element.is_ground n1 and g2 = C.Element.is_ground n2 in
        let i1 = if g1 then -1 else Hashtbl.find idx n1
        and i2 = if g2 then -1 else Hashtbl.find idx n2 in
        if i1 >= 0 then N.Sparse.add b i1 i1 v;
        if i2 >= 0 then N.Sparse.add b i2 i2 v;
        if i1 >= 0 && i2 >= 0 then begin
          N.Sparse.add b i1 i2 (-.v);
          N.Sparse.add b i2 i1 (-.v)
        end
      in
      List.iter
        (function
          | C.Element.Resistor { n1; n2; ohms; _ } -> stamp gb n1 n2 (1. /. ohms)
          | C.Element.Capacitor { n1; n2; farads; _ } -> stamp cb n1 n2 farads
          | _ -> ())
        els;
      let g = N.Sparse.finalize gb and cm = N.Sparse.finalize cb in
      let ports =
        ports_of_net t |> List.map (Hashtbl.find idx) |> Array.of_list
      in
      let res = K.reduce ~order:t.order ~g ~c:cm ports in
      ignore (R.ports m);
      let defect m = fst (K.psd_defect_index m) in
      defect res.K.ghat >= -1e-9 && defect res.K.chat >= -1e-12)

let prop_transfer_error =
  QCheck.Test.make ~count:80
    ~name:"reduced port transfer tracks exact within tolerance over the band"
    net_arb
    (fun t ->
      let exact = R.of_elements ~ports:(ports_of_net t) (elements_of_net t) in
      (* auto mode with a tight tolerance must land within the asserted
         band tolerance against the true exact reference *)
      let red =
        R.reduce ~config:{ R.default_config with order = R.Auto 1e-9 } exact
      in
      model_error red exact < 1e-4)

(* --- flow integration --------------------------------------------- *)

let test_flow_reduced_nmos () =
  (* end-to-end: the NMOS measurement flow with reduction on must land
     on the same divider and transfer numbers as the exact flow — the
     kept observation nodes (injection, back gate) carry the answer.
     On this deck the passive interior is tiny (the macromodel is
     already Schur-reduced to its ports), so this exercises the
     fail-soft contract: Auto order finds no win and must keep the
     exact form rather than degrade the answer *)
  let module Flow = Snoise.Flow in
  let options =
    {
      Flow.default_options with
      Flow.grid = { Sn_substrate.Grid.default_config with nx = 12; ny = 12 };
    }
  in
  let params = Sn_testchip.Nmos_structure.default in
  let exact = Flow.build_nmos ~options params in
  let reduced =
    Flow.build_nmos
      ~options:
        { options with Flow.reduce = Some { R.default_config with order = R.Auto 1e-7 } }
      params
  in
  let de = Flow.nmos_divider exact and dr = Flow.nmos_divider reduced in
  Alcotest.(check bool)
    (Printf.sprintf "divider matches (%.6g vs %.6g)" dr de)
    true
    (Float.abs (dr -. de) /. de < 1e-3);
  let pe = Flow.nmos_transfer exact ~divider:de ~vgs:0.8 ~vds:1.2 ~freq:5.0e6
  and pr = Flow.nmos_transfer reduced ~divider:dr ~vgs:0.8 ~vds:1.2 ~freq:5.0e6 in
  Alcotest.(check bool)
    (Printf.sprintf "transfer matches (%.3f vs %.3f dB)"
       pr.Flow.transfer_sim_db pe.Flow.transfer_sim_db)
    true
    (Float.abs (pr.Flow.transfer_sim_db -. pe.Flow.transfer_sim_db) < 0.05)

let qcheck t = QCheck_alcotest.to_alcotest t

let suites =
  [
    ( "reduce.kernel",
      [
        Alcotest.test_case "full rank / rank-k forms" `Quick
          test_full_rank_exact;
        Alcotest.test_case "DC moment exact at order 1" `Quick
          test_dc_moment_exact;
        Alcotest.test_case "auto order meets tolerance" `Quick test_auto_order;
        Alcotest.test_case "realization consistent" `Quick
          test_realization_consistent;
        Alcotest.test_case "singular island fail-soft" `Quick
          test_singular_island_fail_soft;
      ] );
    ( "reduce.deck",
      [
        Alcotest.test_case "transfer matches exact" `Quick
          test_reduce_deck_transfer;
        Alcotest.test_case "mesh with substrate: rank-k transfer" `Quick
          test_reduce_mesh_with_substrate;
        Alcotest.test_case "keep list and directive" `Quick
          test_reduce_deck_keep;
        Alcotest.test_case "noop without internals" `Quick
          test_reduce_deck_noop;
        Alcotest.test_case "config digests distinct" `Quick
          test_config_digest_distinct;
        Alcotest.test_case "knob validation" `Quick test_config_of_knobs;
      ] );
    ( "reduce.flow",
      [
        Alcotest.test_case "nmos flow with reduction matches exact" `Slow
          test_flow_reduced_nmos;
      ] );
    ( "reduce.qcheck",
      [
        qcheck prop_kernel_psd;
        qcheck prop_passivity;
        qcheck prop_transfer_error;
      ] );
  ]
