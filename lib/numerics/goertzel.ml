let check ~fs ~f samples =
  if Array.length samples = 0 then invalid_arg "Goertzel: empty input";
  if fs <= 0.0 then invalid_arg "Goertzel: fs must be > 0";
  if f < 0.0 || f > fs /. 2.0 then
    invalid_arg (Printf.sprintf "Goertzel: f = %g outside [0, fs/2]" f)

let reseed_interval = 512

(* Direct correlation form: robust at arbitrary (non bin-center)
   frequencies, which the second-order recurrence handles poorly near
   0.  One pass returns [(re, im, wsum)]: the sums of x_i w_i e^{-j w i}
   and of w_i, where w_i is the Hann weight when [hann] and 1 otherwise.
   The bin phasor e^{j w i} and the Hann phasor e^{j 2 pi i / (n - 1)}
   advance by one rotation per sample and are re-seeded exactly with
   cos/sin at every multiple of [reseed_interval], so the drift of a
   phasor never exceeds [reseed_interval] rotations' rounding. *)
let correlate ~hann ~fs ~f samples =
  let n = Array.length samples in
  let w = Units.two_pi *. f /. fs in
  let cw = cos w and sw = sin w in
  let hann = hann && n > 1 in
  let dh = if hann then 2.0 *. Units.pi /. float_of_int (n - 1) else 0.0 in
  let ch = cos dh and sh = sin dh in
  let re = ref 0.0 and im = ref 0.0 and wsum = ref 0.0 in
  let bc = ref 1.0 and bs = ref 0.0 and hc = ref 1.0 and hs = ref 0.0 in
  let i0 = ref 0 in
  while !i0 < n do
    let ph = w *. float_of_int !i0 in
    bc := cos ph;
    bs := sin ph;
    if hann then begin
      let ph = 2.0 *. Units.pi *. float_of_int !i0 /. float_of_int (n - 1) in
      hc := cos ph;
      hs := sin ph
    end;
    for i = !i0 to min n (!i0 + reseed_interval) - 1 do
      let wi = if hann then 0.5 *. (1.0 -. !hc) else 1.0 in
      let x = Array.unsafe_get samples i *. wi in
      re := !re +. (x *. !bc);
      im := !im -. (x *. !bs);
      wsum := !wsum +. wi;
      let c = !bc in
      bc := (c *. cw) -. (!bs *. sw);
      bs := (!bs *. cw) +. (c *. sw);
      let c = !hc in
      hc := (c *. ch) -. (!hs *. sh);
      hs := (!hs *. ch) +. (c *. sh)
    done;
    i0 := !i0 + reseed_interval
  done;
  (!re, !im, !wsum)

(* single-sided 2/N, except at DC and Nyquist *)
let side_scale ~fs ~f = if f = 0.0 || f = fs /. 2.0 then 1.0 else 2.0

let bin ~fs ~f samples =
  check ~fs ~f samples;
  let re, im, wsum = correlate ~hann:false ~fs ~f samples in
  let k = side_scale ~fs ~f /. wsum in
  { Complex.re = re *. k; im = im *. k }

let amplitude ~fs ~f samples = Complex.norm (bin ~fs ~f samples)

let amplitude_windowed ~fs ~f samples =
  check ~fs ~f samples;
  if Array.length samples = 2 then
    invalid_arg "Goertzel: a 2-sample Hann window is all 0";
  let re, im, wsum = correlate ~hann:true ~fs ~f samples in
  side_scale ~fs ~f *. Complex.norm { Complex.re; im } /. wsum
