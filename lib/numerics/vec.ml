type t = float array

let zeros n = Array.make n 0.0
let init = Array.init
let copy = Array.copy

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
         (Array.length a) (Array.length b))

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let norm2 v = sqrt (dot v v)

let max_abs_diff a b =
  check_dims "max_abs_diff" a b;
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := Float.max !acc (Float.abs (a.(i) -. b.(i)))
  done;
  !acc
