let linspace a b n =
  if n = 1 && a = b then [| a |]
  else if n < 2 then invalid_arg "Sweep.linspace: need at least 2 points"
  else begin
    let step = (b -. a) /. float_of_int (n - 1) in
    Array.init n (fun i ->
        if i = n - 1 then b else a +. (float_of_int i *. step))
  end

let logspace a b n =
  if a <= 0.0 || b <= 0.0 then invalid_arg "Sweep.logspace: endpoints must be > 0";
  Array.map (fun e -> 10.0 ** e) (linspace (log10 a) (log10 b) n)

let decades ~per_decade f0 f1 =
  if per_decade < 1 then invalid_arg "Sweep.decades: per_decade must be >= 1";
  if f0 <= 0.0 || f1 <= 0.0 || f1 <= f0 then
    invalid_arg "Sweep.decades: need 0 < f0 < f1";
  let n_dec = log10 (f1 /. f0) in
  let n = max 2 (1 + int_of_float (ceil (n_dec *. float_of_int per_decade))) in
  logspace f0 f1 n

let interp1 xs ys x =
  let n = Array.length xs in
  if n = 0 || Array.length ys <> n then
    invalid_arg "Sweep.interp1: bad sample arrays";
  if n = 1 || x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    (* binary search for the bracketing interval *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    let x0 = xs.(!lo) and x1 = xs.(!hi) in
    let t = (x -. x0) /. (x1 -. x0) in
    ys.(!lo) +. (t *. (ys.(!hi) -. ys.(!lo)))
  end
