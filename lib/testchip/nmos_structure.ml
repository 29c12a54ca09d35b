module G = Sn_geometry
module L = Sn_layout
module C = Sn_circuit

type params = {
  device_half_pitch : float;
  mos_ring_gap : float;
  mos_ring_strip : float;
  outer_ring_inner : float;
  outer_ring_strip : float;
  sub_offset : float;
  sub_size : float;
  gnd_wire_length : float;
  gnd_wire_width : float;
  gr_wire_width : float;
  probe_resistance : float;
  mos : C.Mos_model.t;
  device_w : float;
  device_l : float;
  parallel_devices : int;
}

(* The RF NMOS card reproduces the paper's measured small-signal
   ranges: g_mb 10-38 mS and g_ds 2.8-22 mS over the 0.5-1.6 V bias
   sweep, with the stated junction capacitances (120 fF / 200 fF for
   the four-transistor parallel connection). *)
let rf_nmos =
  {
    C.Mos_model.default_nmos with
    C.Mos_model.name = "rfnmos";
    kp = 280.0e-6;
    vt0 = 0.42;
    gamma = 0.45;
    phi = 0.85;
    lambda = 1.0;
    (* per device: the paper's 120 fF / 200 fF are for the x4 total *)
    cdb = 30.0e-15;
    csb = 50.0e-15;
    cgs = 60.0e-15;
    cgd = 20.0e-15;
  }

let default =
  {
    device_half_pitch = 8.0;
    mos_ring_gap = 8.0;
    mos_ring_strip = 8.0;
    outer_ring_inner = 140.0;
    outer_ring_strip = 8.0;
    sub_offset = 125.0;
    sub_size = 16.0;
    gnd_wire_length = 300.0;
    gnd_wire_width = 5.0;
    gr_wire_width = 8.0;
    probe_resistance = 0.05;
    mos = rf_nmos;
    device_w = 26.0e-6;
    device_l = 0.18e-6;
    parallel_devices = 4;
  }

let inject = "sub_inject"

let layout p =
  let center = G.Point.zero in
  let hp = p.device_half_pitch in
  let backgate =
    L.Shape.rect
      ~layer:(L.Layer.Backgate_probe "m1")
      ~net:"-"
      (G.Rect.make (-.hp) (-.hp) hp hp)
  in
  let mos_ring_inner = 2.0 *. (hp +. p.mos_ring_gap) in
  let mos_ring =
    Ring.contacts ~net:"mos_gr" ~center ~inner:mos_ring_inner
      ~strip:p.mos_ring_strip
  in
  let outer_ring =
    Ring.contacts ~net:"gr" ~center ~inner:(2.0 *. p.outer_ring_inner)
      ~strip:p.outer_ring_strip
  in
  let sub =
    L.Shape.rect ~layer:L.Layer.Substrate_contact ~net:inject
      (G.Rect.of_center
         (G.Point.v p.sub_offset 0.0)
         ~width:p.sub_size ~height:p.sub_size)
  in
  (* metal-1 ground interconnect: MOS GR and GR each strap to the pad *)
  let ring_edge = (mos_ring_inner /. 2.0) +. p.mos_ring_strip in
  let gnd_wire =
    L.Shape.path ~layer:(L.Layer.Metal 1) ~net:"gnd" ~from_terminal:"mos_gr"
      ~to_terminal:"gnd_pad"
      (G.Path.make ~width:p.gnd_wire_width
         [ G.Point.v (-.ring_edge) 0.0;
           G.Point.v (-.ring_edge -. p.gnd_wire_length) 0.0 ])
  in
  let gr_edge = p.outer_ring_inner +. p.outer_ring_strip in
  let gr_wire =
    (* the outer guard ring returns through its own pad, as the
       ground of the GSG injection probe does on the real chip *)
    L.Shape.path ~layer:(L.Layer.Metal 1) ~net:"gnd_gr" ~from_terminal:"gr"
      ~to_terminal:"gr_pad"
      (G.Path.make ~width:p.gr_wire_width
         [ G.Point.v 0.0 gr_edge; G.Point.v 0.0 (gr_edge +. 120.0) ])
  in
  let pad =
    L.Shape.rect ~layer:L.Layer.Pad ~net:"gnd"
      (G.Rect.of_center
         (G.Point.v (-.ring_edge -. p.gnd_wire_length) 0.0)
         ~width:60.0 ~height:60.0)
  in
  let cell =
    L.Cell.make ~name:"nmos_structure"
      ([ backgate; sub; gnd_wire; gr_wire; pad ] @ mos_ring @ outer_ring)
  in
  L.Layout.create ~top:"nmos_structure" [ cell ]

let bulk = "backgate:m1"
let drain = "d"

let structure p =
  { Structure.layout = layout p; ground_net = "gnd"; substrate_node = "gr";
    ground_wire = ("mos_gr", "gnd_pad"); inject }

let probes p =
  [ C.Element.Resistor { name = "rprobe"; n1 = "gnd_pad"; n2 = "0";
                         ohms = p.probe_resistance };
    C.Element.Resistor { name = "rprobe_gr"; n1 = "gr_pad"; n2 = "0";
                         ohms = p.probe_resistance } ]

let biased p ~vgs ~vds =
  let dc name np v =
    C.Element.Vsource { name; np; nn = "0"; wave = C.Waveform.dc v;
                        ac_mag = 0.0 }
  in
  { Structure.title = "nmos structure, merged impact model";
    elements =
      (* the drain is biased through an RF choke so the AC output sees
         the transistor's own r_ds, matching the paper's gmb / gds hand
         calculation *)
      [ dc "vg" "g" vgs; dc "vbias" "bias" vds;
        C.Element.Inductor { name = "lchoke"; n1 = "bias"; n2 = drain;
                             henries = 1.0e-3 } ]
      (* the source metal runs on its own wide strap to the ground pad,
         while the MOS guard ring reaches the same pad through the thin
         extracted wire — so the bulk rides up on the ring bounce while
         the source stays quiet, which is how the interconnect
         resistance doubles v_bs in the paper *)
      @ probes p
      @ C.Element.Mosfet { name = "m1"; drain; gate = "g"; source = "gnd_pad";
                           bulk; model = p.mos; w = p.device_w;
                           l = p.device_l; mult = p.parallel_devices }
        :: Structure.injection inject;
    keep = [ inject ] }

(* sub_inject and the back-gate probe are passive-touched only: the
   divider observes them, so reduction must keep them explicit *)
let passive p =
  { Structure.title = "nmos structure, passive";
    elements = Structure.injection inject @ probes p;
    keep = [ inject; bulk ] }

let small_signal p dc =
  let op = Sn_engine.Dc.mos_operating_point dc "m1" in
  let mult = float_of_int p.parallel_devices in
  (mult *. op.C.Mos_model.gmb, mult *. op.C.Mos_model.gds)

let bias_sweep = List.map (fun v -> (v, v)) [ 0.6; 0.7; 0.8; 0.9; 1.0 ]
