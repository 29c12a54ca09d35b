(* Tests for sn_rf: the tank model and K_i sensitivities, the FM/AM
   spur equations against hand-derived values, the behavioral
   synthesizer against FM theory, and the Leeson estimate. *)

module Tank = Sn_rf.Tank
module Impact = Sn_rf.Impact
module Behavioral = Sn_rf.Behavioral
module Pn = Sn_rf.Phase_noise
module U = Sn_numerics.Units

open Helpers

let tank = Tank.default_3ghz
let bias = Tank.quiet_bias ~v_tune:0.45

(* ------------------------------------------------------------------ *)
(* Tank *)

let test_tank_3ghz () =
  let f = Tank.frequency tank bias in
  Alcotest.(check bool)
    (Printf.sprintf "fc = %.2f GHz near 3" (f /. 1e9))
    true
    (f > 2.6e9 && f < 3.8e9)

let test_tank_capacitance_positive_and_tuned () =
  let c0 = Tank.capacitance tank (Tank.quiet_bias ~v_tune:0.0) in
  let c9 = Tank.capacitance tank (Tank.quiet_bias ~v_tune:0.9) in
  Alcotest.(check bool) "C > 0" true (c0 > 0.0);
  (* higher tuning voltage lowers the varactor bias -> less C *)
  Alcotest.(check bool) "tuning reduces C" true (c9 < c0)

let test_junction_capacitance_law () =
  let j = { Tank.c0 = 100e-15; phi_b = 0.8; grading = 0.5 } in
  (* a tank of the NMOS junction alone, reverse-biased by the tank
     common mode over a quiet back-gate *)
  let only_junction =
    { tank with Tank.c_fixed = 0.0; varactor_mult = 0; cj_nmos = j;
                cj_pmos = { j with Tank.c0 = 0.0 } }
  in
  let c v_reverse =
    Tank.capacitance only_junction
      { (Tank.quiet_bias ~v_tune:0.0) with
        Tank.v_gnd = 0.0; v_tank_cm = v_reverse; v_backgate = 0.0 }
  in
  check_close 1e-18 "zero bias" 100e-15 (c 0.0);
  check_close 1e-18 "reverse bias shrinks" (100e-15 /. sqrt 2.0) (c 0.8);
  (* forward-bias clamp keeps it finite *)
  Alcotest.(check bool) "clamped" true (Float.is_finite (c (-2.0)))

let test_ground_mirror_of_varactor_well () =
  (* a ground bounce changes the varactor bias exactly opposite to a
     tuning-node shift, so the sensitivities mirror *)
  let k_gnd = Tank.sensitivity tank bias Tank.Ground in
  let k_var = Tank.sensitivity tank bias Tank.Varactor_well in
  Alcotest.(check bool) "opposite signs" true (k_gnd *. k_var < 0.0);
  Alcotest.(check bool) "similar magnitude" true
    (Float.abs (Float.abs k_gnd /. Float.abs k_var -. 1.0) < 0.2)

let test_ground_sensitivity_dominates_backgate () =
  (* the varactor slope beats the junction-cap slope by an order of
     magnitude: the root of the paper's 20 dB gap *)
  let k_gnd = Float.abs (Tank.sensitivity tank bias Tank.Ground) in
  let k_bg = Float.abs (Tank.sensitivity tank bias Tank.Backgate) in
  Alcotest.(check bool)
    (Printf.sprintf "K_gnd/K_bg = %.1f" (k_gnd /. k_bg))
    true
    (k_gnd /. k_bg > 5.0)

let test_sensitivity_is_derivative () =
  (* central difference at a different step must agree *)
  let k = Tank.sensitivity tank bias Tank.Ground in
  let dv = 1e-3 in
  (* a ground bounce lifts local ground and the tank riding on it *)
  let shifted dv = { bias with Tank.v_gnd = bias.Tank.v_gnd +. dv } in
  let fp = Tank.frequency tank (shifted dv) in
  let fm = Tank.frequency tank (shifted (-.dv)) in
  let k' = (fp -. fm) /. (2.0 *. dv) in
  Alcotest.(check bool) "derivative consistent" true
    (Float.abs (k -. k') /. Float.abs k < 1e-3)

let test_kvco_sign_and_magnitude () =
  let k = Tank.kvco tank ~v_tune:0.45 in
  (* raising v_tune lowers the varactor bias, shrinks C, raises f *)
  Alcotest.(check bool) "positive tuning gain" true (k > 0.0);
  Alcotest.(check bool) "hundreds of MHz/V" true (k > 1e8 && k < 2e9)

(* ------------------------------------------------------------------ *)
(* Impact model *)

let one_entry_osc k g_am =
  {
    Impact.carrier_freq = 3.0e9;
    amplitude = 0.4;
    entries =
      [ { Impact.label = "e"; node = "n"; k_hz_per_v = k; g_am_per_v = g_am } ];
  }

let const_h v _node = { Complex.re = v; im = 0.0 }

let test_spur_matches_eq2 () =
  (* pure FM: |V(fc+fn)| = Ac K H A / (2 fn)  (paper eq. 2) *)
  let k = 1.0e8 and h = 1.0e-3 and a_noise = 0.1 and fn = 1.0e6 in
  let osc = one_entry_osc k 0.0 in
  let s = Impact.spur osc ~h:(const_h h) ~a_noise ~f_noise:fn in
  let expected = 0.4 *. k *. h *. a_noise /. (2.0 *. fn) in
  check_close 0.01 "eq 2" (U.dbm_of_vpeak expected) s.Impact.upper_dbm;
  check_close 0.05 "lower = upper for pure FM" s.Impact.upper_dbm
    s.Impact.lower_dbm

let test_spur_matches_eq3 () =
  (* pure AM: |V(fc+-fn)| = Ac H A G / 2, frequency independent *)
  let g = 0.5 and h = 1.0e-3 and a_noise = 0.1 in
  let osc = one_entry_osc 0.0 g in
  let s1 = Impact.spur osc ~h:(const_h h) ~a_noise ~f_noise:1.0e6 in
  let s2 = Impact.spur osc ~h:(const_h h) ~a_noise ~f_noise:10.0e6 in
  let expected = 0.4 *. h *. a_noise *. g /. 2.0 in
  check_close 0.01 "eq 3" (U.dbm_of_vpeak expected) s1.Impact.upper_dbm;
  check_close 0.01 "AM flat in frequency" s1.Impact.upper_dbm
    s2.Impact.upper_dbm

let test_fm_scales_inverse_f () =
  let osc = one_entry_osc 1.0e8 0.0 in
  let at fn =
    (Impact.spur osc ~h:(const_h 1e-3) ~a_noise:0.1 ~f_noise:fn).Impact.upper_dbm
  in
  check_close 0.01 "-20 dB per decade" 20.0 (at 1.0e6 -. at 1.0e7)

let test_superposition_of_entries () =
  (* two identical in-phase entries double the spur voltage: +6 dB *)
  let osc2 =
    {
      Impact.carrier_freq = 3.0e9;
      amplitude = 0.4;
      entries =
        [ { Impact.label = "a"; node = "n"; k_hz_per_v = 1.0e8; g_am_per_v = 0.0 };
          { Impact.label = "b"; node = "n"; k_hz_per_v = 1.0e8; g_am_per_v = 0.0 } ];
    }
  in
  let s1 =
    Impact.spur (one_entry_osc 1.0e8 0.0) ~h:(const_h 1e-3) ~a_noise:0.1
      ~f_noise:1.0e6
  in
  let s2 = Impact.spur osc2 ~h:(const_h 1e-3) ~a_noise:0.1 ~f_noise:1.0e6 in
  check_close 0.02 "+6 dB" 6.02 (s2.Impact.upper_dbm -. s1.Impact.upper_dbm)

let test_opposing_entries_cancel () =
  let osc =
    {
      Impact.carrier_freq = 3.0e9;
      amplitude = 0.4;
      entries =
        [ { Impact.label = "a"; node = "n"; k_hz_per_v = 1.0e8; g_am_per_v = 0.0 };
          { Impact.label = "b"; node = "n"; k_hz_per_v = -1.0e8; g_am_per_v = 0.0 } ];
    }
  in
  let s = Impact.spur osc ~h:(const_h 1e-3) ~a_noise:0.1 ~f_noise:1.0e6 in
  Alcotest.(check bool) "cancellation" true (s.Impact.upper_dbm < -200.0)

let test_am_fm_asymmetry () =
  (* AM and FM arriving through paths of different phase split the
     sidebands; with identical phases |m + j beta| = |m - j beta| and
     they cannot split (which is why the paper's measured asymmetry is
     small) *)
  let osc =
    {
      Impact.carrier_freq = 3.0e9;
      amplitude = 0.4;
      entries =
        [ { Impact.label = "fm"; node = "n1"; k_hz_per_v = 1.0e8;
            g_am_per_v = 0.0 };
          { Impact.label = "am"; node = "n2"; k_hz_per_v = 0.0;
            g_am_per_v = 5.0 } ];
    }
  in
  let h node =
    if String.equal node "n1" then { Complex.re = 1e-3; im = 0.0 }
    else { Complex.re = 0.0; im = 1e-3 }
  in
  let s = Impact.spur osc ~h ~a_noise:0.1 ~f_noise:10.0e6 in
  Alcotest.(check bool) "sidebands differ" true
    (Float.abs (s.Impact.upper_dbm -. s.Impact.lower_dbm) > 0.5);
  (* same phases: no split *)
  let s_same =
    Impact.spur (one_entry_osc 1.0e8 5.0) ~h:(const_h 1e-3) ~a_noise:0.1
      ~f_noise:10.0e6
  in
  Alcotest.(check bool) "same-phase paths do not split" true
    (Float.abs (s_same.Impact.upper_dbm -. s_same.Impact.lower_dbm) < 1e-6)

let test_invalid_f_noise () =
  Alcotest.check_raises "f_noise 0"
    (Invalid_argument "Impact.spur: f_noise must be > 0") (fun () ->
      ignore
        (Impact.spur (one_entry_osc 1.0 0.0) ~h:(const_h 1.0) ~a_noise:1.0
           ~f_noise:0.0))

(* ------------------------------------------------------------------ *)
(* Behavioral synthesis *)

let test_behavioral_matches_bessel () =
  (* narrowband FM: first sideband amplitude = Ac J1(beta) ~ Ac beta/2 *)
  let beta = 0.05 and fc = 50.0e6 and fn = 5.0e6 and fs = 250.0e6 in
  let samples =
    Behavioral.synthesize ~carrier_freq:fc ~amplitude:1.0
      ~tones:
        [ { Behavioral.f_noise = fn; beta = { Complex.re = beta; im = 0.0 };
            m_am = Complex.zero } ]
      ~fs ~n:65536
  in
  let upper =
    Behavioral.measured_sideband_dbm samples ~fs ~carrier_freq:fc ~f_noise:fn
      `Upper
  in
  let expected = U.dbm_of_vpeak (beta /. 2.0) in
  check_close 0.1 "J1 approximation" expected upper

let test_behavioral_carrier_level () =
  let fc = 50.0e6 and fs = 250.0e6 in
  let samples =
    Behavioral.synthesize ~carrier_freq:fc ~amplitude:0.4 ~tones:[] ~fs
      ~n:16384
  in
  check_close 0.05 "carrier dBm" (U.dbm_of_vpeak 0.4)
    (Behavioral.carrier_dbm samples ~fs ~carrier_freq:fc)

let test_behavioral_rejects_undersampling () =
  Alcotest.(check bool) "fs <= 2 fc rejected" true
    (match
       Behavioral.synthesize ~carrier_freq:100.0e6 ~amplitude:1.0 ~tones:[]
         ~fs:150.0e6 ~n:16
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_behavioral_multitone () =
  (* two tones produce two independent spur pairs *)
  let fc = 50.0e6 and fs = 250.0e6 in
  let tone fn beta =
    { Behavioral.f_noise = fn; beta = { Complex.re = beta; im = 0.0 };
      m_am = Complex.zero }
  in
  let samples =
    Behavioral.synthesize ~carrier_freq:fc ~amplitude:1.0
      ~tones:[ tone 3.0e6 0.02; tone 7.0e6 0.04 ] ~fs ~n:65536
  in
  let at fn =
    Behavioral.measured_sideband_dbm samples ~fs ~carrier_freq:fc ~f_noise:fn
      `Upper
  in
  check_close 0.2 "tone 1" (U.dbm_of_vpeak 0.01) (at 3.0e6);
  check_close 0.2 "tone 2" (U.dbm_of_vpeak 0.02) (at 7.0e6)

(* Oracle: eq. (1) evaluated per sample with cos/sin of each tone *)
let synthesize_oracle ~carrier_freq ~amplitude ~tones ~fs ~n =
  let wc = U.two_pi *. carrier_freq in
  Array.init n (fun k ->
      let t = float_of_int k /. fs in
      let am = ref 0.0 and pm = ref 0.0 in
      List.iter
        (fun { Behavioral.f_noise; beta; m_am } ->
          let wm = U.two_pi *. f_noise *. t in
          let cwm = cos wm and swm = sin wm in
          am := !am +. ((m_am.Complex.re *. cwm) -. (m_am.Complex.im *. swm));
          pm := !pm +. ((beta.Complex.re *. cwm) -. (beta.Complex.im *. swm)))
        tones;
      amplitude *. (1.0 +. !am) *. cos ((wc *. t) +. !pm))

(* ulp of [x] *)
let ulp x = Float.succ (Float.abs x) -. Float.abs x

(* The closed form rounds its phase arguments, so it is only this close
   to eq. (1): each tone's [w_m t] to about an ulp, which the
   recurrence inherits from its seeds (so 3 ulp x (|beta| + |m|)
   between the two), and the carrier phase [w_c t + pm], whose rounding
   turns a last-bit difference in [pm] into A x ulp (w_c t) (1.5e-11 A
   at the 65,536th sample of a 64 MHz carrier at 320 MHz).  The bound
   is 1e-12 on top of that floor, times the AM envelope's peak.
   Carriers drawn down to 1 Hz and tones down to 10 kHz keep the floor
   well below the 2-3e-12 a phasor drifts over 70k unseeded rotations. *)
let prop_synthesize_matches_closed_form =
  QCheck.Test.make ~count:60 ~name:"synthesize matches eq. (1) per sample"
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 3))
    (fun (seed, n_tones) ->
      let st = Random.State.make [| seed |] in
      let fs = 320.0e6 in
      let log_uniform lo hi = lo *. ((hi /. lo) ** Random.State.float st 1.0) in
      let carrier_freq = log_uniform 1.0 100.0e6 in
      let amplitude = 0.1 +. Random.State.float st 2.0 in
      let within a = Random.State.float st (2.0 *. a) -. a in
      let tones =
        List.init n_tones (fun _ ->
            { Behavioral.f_noise = log_uniform 1.0e4 30.0e6;
              beta = { Complex.re = within 1.0; im = within 1.0 };
              m_am = { Complex.re = within 0.1; im = within 0.1 } })
      in
      let n = 1 + Random.State.int st 70_000 in
      let got = Behavioral.synthesize ~carrier_freq ~amplitude ~tones ~fs ~n in
      let want = synthesize_oracle ~carrier_freq ~amplitude ~tones ~fs ~n in
      let err = ref 0.0 in
      Array.iteri (fun k w -> err := Float.max !err (Float.abs (got.(k) -. w))) want;
      let phase f = U.two_pi *. f *. float_of_int n /. fs in
      let floor =
        List.fold_left
          (fun acc { Behavioral.f_noise; beta; m_am } ->
            acc
            +. (3.0 *. (Complex.norm beta +. Complex.norm m_am) *. ulp (phase f_noise)))
          (2.0 *. ulp (phase carrier_freq +. 8.0))
          tones
      in
      let envelope =
        List.fold_left (fun acc t -> acc +. Complex.norm t.Behavioral.m_am) 1.0 tones
      in
      !err <= amplitude *. envelope *. (1e-12 +. floor)
      || QCheck.Test.fail_reportf "fc=%g n=%d, %d tones: max err %g > A (1e-12 + %g)"
           carrier_freq n n_tones !err floor)

(* ------------------------------------------------------------------ *)
(* Digital aggressor *)

module Aggressor = Sn_rf.Aggressor

let test_aggressor_harmonics () =
  let a = Aggressor.default in
  (* the comb injects each clock harmonic of the pulse train through
     the injection resistance *)
  let comb =
    Aggressor.spur_comb a ~osc:(one_entry_osc 1.0e8 0.0) ~h:(fun _f ->
        const_h 1e-3)
  in
  let amplitude (l : Aggressor.comb_line) =
    U.vpeak_of_dbm l.Aggressor.injected_dbm /. a.Aggressor.injection_resistance
  in
  Alcotest.(check int) "one line per harmonic" a.Aggressor.harmonics
    (List.length comb);
  let a1 = amplitude (List.hd comb) in
  Alcotest.(check bool) "fundamental positive" true (a1 > 0.0);
  (* dc-free sanity: amplitude bounded by twice the average current *)
  let avg = a.Aggressor.peak_current *. a.Aggressor.pulse_width /. 2.0
            *. a.Aggressor.clock_freq in
  Alcotest.(check bool) "a1 <= 2 avg" true (a1 <= 2.0 *. avg +. 1e-12);
  (* sinc^2 rolloff: harmonics decay monotonically for this pulse *)
  let rec monotone = function
    | l :: (l' :: _ as rest) ->
      amplitude l' <= amplitude l +. 1e-15 && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "rolloff" true (monotone comb)

let test_aggressor_comb () =
  let a = { Aggressor.default with Aggressor.harmonics = 4 } in
  let osc = one_entry_osc 1.0e8 0.0 in
  let comb = Aggressor.spur_comb a ~osc ~h:(fun _f -> const_h 1e-3) in
  Alcotest.(check int) "4 lines" 4 (List.length comb);
  (* with a flat resistive H, the comb decays: less injected current
     and 1/f FM *)
  (match comb with
   | first :: rest ->
     List.iter
       (fun (l : Aggressor.comb_line) ->
         Alcotest.(check bool) "fundamental dominates" true
           (l.Aggressor.upper_dbm <= first.Aggressor.upper_dbm))
       rest
   | [] -> Alcotest.fail "empty comb");
  (* total power at least the strongest line *)
  let total = Aggressor.total_spur_power_dbm comb in
  List.iter
    (fun (l : Aggressor.comb_line) ->
      Alcotest.(check bool) "total >= line" true
        (total >= l.Aggressor.upper_dbm -. 1e-9))
    comb

(* ------------------------------------------------------------------ *)
(* Phase noise *)

let test_leeson_card () =
  let l = Pn.dbc_per_hz Pn.default_vco 100.0e3 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f dBc/Hz near -100" l)
    true
    (l > -105.0 && l < -95.0)

let test_leeson_slope () =
  (* in the 1/f^2 region the noise falls 20 dB/decade *)
  let at f = Pn.dbc_per_hz Pn.default_vco f in
  let slope = at 1.0e6 -. at 1.0e5 in
  Alcotest.(check bool)
    (Printf.sprintf "slope %.1f in [-26, -18]" slope)
    true
    (slope < -18.0 && slope > -26.0)

let suites =
  [
    ( "rf.tank",
      [
        Alcotest.test_case "3 GHz tank" `Quick test_tank_3ghz;
        Alcotest.test_case "tuning shrinks C" `Quick
          test_tank_capacitance_positive_and_tuned;
        Alcotest.test_case "junction law" `Quick test_junction_capacitance_law;
        Alcotest.test_case "ground mirrors varactor well" `Quick
          test_ground_mirror_of_varactor_well;
        Alcotest.test_case "ground >> backgate sensitivity" `Quick
          test_ground_sensitivity_dominates_backgate;
        Alcotest.test_case "K is the derivative" `Quick
          test_sensitivity_is_derivative;
        Alcotest.test_case "kvco" `Quick test_kvco_sign_and_magnitude;
      ] );
    ( "rf.impact",
      [
        Alcotest.test_case "eq (2) FM spur" `Quick test_spur_matches_eq2;
        Alcotest.test_case "eq (3) AM spur" `Quick test_spur_matches_eq3;
        Alcotest.test_case "FM 1/f law" `Quick test_fm_scales_inverse_f;
        Alcotest.test_case "superposition" `Quick test_superposition_of_entries;
        Alcotest.test_case "cancellation" `Quick test_opposing_entries_cancel;
        Alcotest.test_case "AM/FM sideband asymmetry" `Quick
          test_am_fm_asymmetry;
        Alcotest.test_case "invalid f_noise" `Quick test_invalid_f_noise;
      ] );
    ( "rf.behavioral",
      [
        Alcotest.test_case "FM sideband = J1(beta)" `Quick
          test_behavioral_matches_bessel;
        Alcotest.test_case "carrier level" `Quick test_behavioral_carrier_level;
        Alcotest.test_case "undersampling rejected" `Quick
          test_behavioral_rejects_undersampling;
        Alcotest.test_case "multi-tone" `Quick test_behavioral_multitone;
        QCheck_alcotest.to_alcotest prop_synthesize_matches_closed_form;
      ] );
    ( "rf.aggressor",
      [
        Alcotest.test_case "harmonic spectrum" `Quick test_aggressor_harmonics;
        Alcotest.test_case "spur comb" `Quick test_aggressor_comb;
      ] );
    ( "rf.phase_noise",
      [
        Alcotest.test_case "Leeson card" `Quick test_leeson_card;
        Alcotest.test_case "1/f^2 slope" `Quick test_leeson_slope;
      ] );
  ]
