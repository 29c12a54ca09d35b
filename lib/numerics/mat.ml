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
