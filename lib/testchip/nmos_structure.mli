(** The paper's NMOS measurement structure (section 3, Figure 4):
    four parallel RF NMOS transistors at the center, a contact ring
    around them (MOS GR), an outer guard ring around the whole
    structure (GR), a substrate injection contact (SUB), and the
    metal-1 ground interconnect connecting both rings to the ground
    pad — whose resistance is the effect under study.

    Node naming convention (shared with the substrate ports so the
    models merge):
    - ["sub_inject"]: the SUB contact (paper: SUB)
    - ["mos_gr"]: the transistor ground ring (paper: MOS GR)
    - ["gr"]: the outer guard ring (paper: GR)
    - ["backgate:m1"] ({!bulk}): bulk sensing node under the transistors
    - ["d"] ({!drain}): the drain, whose transfer Fig. 3 reports
    - ["gnd_pad"]: on-chip end of the measurement ground
    - ["0"]: off-chip ground *)

type params = {
  device_half_pitch : float;  (** um: half-extent of the 4-NMOS block *)
  mos_ring_gap : float;  (** um: gap between device and MOS GR *)
  mos_ring_strip : float;  (** um *)
  outer_ring_inner : float;  (** um: inner half-width of GR *)
  outer_ring_strip : float;  (** um *)
  sub_offset : float;  (** um: SUB contact center distance from device *)
  sub_size : float;  (** um *)
  gnd_wire_length : float;  (** um: MOS GR -> pad metal-1 run *)
  gnd_wire_width : float;  (** um *)
  gr_wire_width : float;  (** um: GR -> pad strap *)
  probe_resistance : float;  (** ohm: pad to off-chip ground *)
  mos : Sn_circuit.Mos_model.t;
  device_w : float;  (** m, per transistor *)
  device_l : float;  (** m *)
  parallel_devices : int;
}

val default : params
(** Calibrated so the extracted SUB -> back-gate voltage division and
    the bias-dependent transfer land in the paper's reported bands
    (about 1/652 and -45 to -52 dB). *)

val structure : params -> Structure.t
(** The layout, ground net ["gnd"] (wire ["mos_gr"] -> ["gnd_pad"])
    and interconnect substrate node ["gr"]. *)

val bulk : string
val drain : string

val passive : params -> Structure.deck
(** The structure without the transistor: the noise source and the
    probes tying [gnd_pad] and [gr_pad] to the off-chip ground. *)

val biased : params -> vgs:float -> vds:float -> Structure.deck
(** The biased 4-NMOS device ["m1"] with its drain load, the probes
    and the noise source; its bulk is {!bulk}, driven by the substrate
    macromodel. *)

val small_signal : params -> Sn_engine.Dc.solution -> float * float
(** [(gmb, gds)] of all parallel devices at a solved bias, S. *)

val bias_sweep : (float * float) list
(** The [(vgs, vds)] points of the Fig. 3 bias sweep: vgs = vds from
    0.6 V to 1.0 V in 0.1 V steps, the same for every structure. *)
