type t = { nr : int; nc : int; data : float array }

let make nr nc =
  if nr < 0 || nc < 0 then invalid_arg "Mat.make: negative dimension";
  { nr; nc; data = Array.make (nr * nc) 0.0 }

let init nr nc f =
  let m = make nr nc in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      m.data.((i * nc) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)


let rows m = m.nr
let cols m = m.nc

(* Direct access to the row-major backing store for solver kernels that
   want to avoid per-element bounds checks; index (i,j) lives at
   i * cols + j. *)
let raw_data m = m.data

let of_flat ~rows:nr ~cols:nc data =
  if nr < 0 || nc < 0 then invalid_arg "Mat.of_flat: negative dimension";
  if Array.length data <> nr * nc then
    invalid_arg "Mat.of_flat: data length does not match dimensions";
  { nr; nc; data }

let check_bounds name m i j =
  if i < 0 || i >= m.nr || j < 0 || j >= m.nc then
    invalid_arg
      (Printf.sprintf "Mat.%s: index (%d,%d) out of %dx%d" name i j m.nr m.nc)

let get m i j =
  check_bounds "get" m i j;
  m.data.((i * m.nc) + j)

let set m i j v =
  check_bounds "set" m i j;
  m.data.((i * m.nc) + j) <- v

let add_to m i j v =
  check_bounds "add_to" m i j;
  let k = (i * m.nc) + j in
  m.data.(k) <- m.data.(k) +. v

let copy m = { m with data = Array.copy m.data }


let mul a b =
  if a.nc <> b.nr then
    invalid_arg
      (Printf.sprintf "Mat.mul: %dx%d * %dx%d" a.nr a.nc b.nr b.nc);
  let c = make a.nr b.nc in
  for i = 0 to a.nr - 1 do
    for k = 0 to a.nc - 1 do
      let aik = a.data.((i * a.nc) + k) in
      if aik <> 0.0 then
        for j = 0 to b.nc - 1 do
          c.data.((i * c.nc) + j) <-
            c.data.((i * c.nc) + j) +. (aik *. b.data.((k * b.nc) + j))
        done
    done
  done;
  c

let mul_vec m v =
  if m.nc <> Array.length v then
    invalid_arg
      (Printf.sprintf "Mat.mul_vec: %dx%d * %d" m.nr m.nc (Array.length v));
  Vec.init m.nr (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.nc - 1 do
        acc := !acc +. (m.data.((i * m.nc) + j) *. v.(j))
      done;
      !acc)

let map2 name f a b =
  if a.nr <> b.nr || a.nc <> b.nc then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch" name);
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = map2 "add" ( +. ) a b
let sub a b = map2 "sub" ( -. ) a b
let scale k m = { m with data = Array.map (fun x -> k *. x) m.data }

let row m i = Vec.init m.nc (fun j -> get m i j)
let col m j = Vec.init m.nr (fun i -> get m i j)

let is_symmetric ?(tol = 1e-9) m =
  m.nr = m.nc
  &&
  let ok = ref true in
  for i = 0 to m.nr - 1 do
    for j = i + 1 to m.nc - 1 do
      if Float.abs (get m i j -. get m j i) > tol then ok := false
    done
  done;
  !ok

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.nr - 1 do
    Format.fprintf fmt "|";
    for j = 0 to m.nc - 1 do
      Format.fprintf fmt " %10.4g" (get m i j)
    done;
    Format.fprintf fmt " |@,"
  done;
  Format.fprintf fmt "@]"
