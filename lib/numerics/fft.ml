let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Iterative in-place radix-2 Cooley-Tukey on split re/im arrays, with
   bit-reversal permutation and a twiddle table computed exactly
   (cos/sin of 2 pi k / n, no accumulated rotation).  Unnormalized. *)
let transform ~inverse re im =
  let n = Array.length re in
  if not (is_power_of_two n) then
    invalid_arg "Fft: length must be a power of two";
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let t = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- t;
      let t = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- t
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  let half_n = n / 2 in
  let tc = Array.create_float half_n and ts = Array.create_float half_n in
  let sign = if inverse then 1.0 else -1.0 in
  for k = 0 to half_n - 1 do
    let ang = 2.0 *. Units.pi *. float_of_int k /. float_of_int n in
    tc.(k) <- cos ang;
    ts.(k) <- sign *. sin ang
  done;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 and stride = n / !len in
    let i = ref 0 in
    while !i < n do
      for k = 0 to half - 1 do
        let wr = tc.(k * stride) and wi = ts.(k * stride) in
        let a = !i + k in
        let b = a + half in
        let br = re.(b) and bi = im.(b) in
        let vr = (br *. wr) -. (bi *. wi) and vi = (br *. wi) +. (bi *. wr) in
        let ar = re.(a) and ai = im.(a) in
        re.(a) <- ar +. vr;
        im.(a) <- ai +. vi;
        re.(b) <- ar -. vr;
        im.(b) <- ai -. vi
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let complex ~inverse x =
  let re = Array.map (fun c -> c.Complex.re) x in
  let im = Array.map (fun c -> c.Complex.im) x in
  transform ~inverse re im;
  let k = if inverse then 1.0 /. float_of_int (Array.length x) else 1.0 in
  Array.init (Array.length x) (fun i -> { Complex.re = re.(i) *. k; im = im.(i) *. k })

let fft x = complex ~inverse:false x
let ifft x = complex ~inverse:true x

type spectrum = { frequencies : float array; amplitudes : float array }

let amplitude_spectrum ?(window = `Hann) ~fs samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Fft.amplitude_spectrum: empty input";
  if fs <= 0.0 then invalid_arg "Fft.amplitude_spectrum: fs must be > 0";
  if n = 2 && window = `Hann then
    invalid_arg "Fft.amplitude_spectrum: a 2-sample Hann window is all 0";
  let np = next_power_of_two n in
  let re = Array.make np 0.0 and im = Array.make np 0.0 in
  let wsum = ref 0.0 in
  for i = 0 to n - 1 do
    let w =
      match window with
      | `Hann when n > 1 ->
        0.5 *. (1.0 -. cos (2.0 *. Units.pi *. float_of_int i /. float_of_int (n - 1)))
      | _ -> 1.0
    in
    re.(i) <- samples.(i) *. w;
    wsum := !wsum +. w
  done;
  transform ~inverse:false re im;
  (* single-sided: double all bins except DC and Nyquist *)
  let base = 1.0 /. !wsum in
  let half = (np / 2) + 1 in
  let frequencies = Array.create_float half and amplitudes = Array.create_float half in
  for k = 0 to half - 1 do
    let scale = if k = 0 || k = np / 2 then base else 2.0 *. base in
    frequencies.(k) <- float_of_int k *. fs /. float_of_int np;
    amplitudes.(k) <- Float.hypot re.(k) im.(k) *. scale
  done;
  { frequencies; amplitudes }
