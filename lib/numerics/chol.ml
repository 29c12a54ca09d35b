(* Envelope Cholesky, row by row: entry (k, j) of L is A(k, j) minus the
   dot product of rows k and j over the columns both store, divided by
   the pivot L(j, j); the pivot itself is the square root of what
   remains of A(k, k).  Row k is stored from its first column
   [first.(k)] on: L has no entry left of the first non-zero of A's
   row, so nothing the loops skip could be non-zero.  Both sweeps read
   L by rows, the backward one column by column. *)

(* entry (k, j) lives at [base.(k) + j] *)
type t = { first : int array; base : int array; size : int }

let envelope first =
  let n = Array.length first in
  let base = Array.make n 0 and size = ref 0 in
  for k = 0 to n - 1 do
    let f = first.(k) in
    if f < 0 || f > k then
      invalid_arg "Chol.envelope: a first column is outside 0..row";
    base.(k) <- !size - f;
    size := !size + (k - f + 1)
  done;
  { first = Array.copy first; base; size = !size }

let dim t = Array.length t.first
let size t = t.size
let index t k j = t.base.(k) + j

let check_storage t l =
  if Array.length l <> t.size then
    invalid_arg "Chol: storage does not match the envelope"

let factor t l =
  check_storage t l;
  let first = t.first and base = t.base in
  for k = 0 to dim t - 1 do
    let rk = base.(k) and fk = first.(k) in
    for j = fk to k do
      let rj = base.(j) in
      let s = ref l.(rk + j) in
      (* [Int.max] inlines; the polymorphic [max] is a call that
         spills [s] to the stack for the whole inner loop *)
      for m = Int.max fk first.(j) to j - 1 do
        s := !s -. (l.(rk + m) *. l.(rj + m))
      done;
      if j < k then l.(rk + j) <- !s /. l.(rj + j)
      else if !s > 0.0 then l.(rk + k) <- sqrt !s
      else raise (Lu.Singular k)
    done
  done

(* [w] interleaved right-hand sides, entry (k, c) at [w * k + c]: each
   decoded entry of L serves every lane, and lane c does exactly the
   arithmetic of a one-lane solve of its own column.  Called with a
   constant [w], the inlined sweeps fold the [if w > c] guards away. *)
let check t l ~lanes y =
  check_storage t l;
  if lanes < 1 || lanes > 4 then invalid_arg "Chol: lanes must be 1..4";
  if Array.length y <> lanes * dim t then
    invalid_arg "Chol: vector length does not match the factor"

let[@inline] forward_lanes w t l y =
  for k = 0 to dim t - 1 do
    let rk = t.base.(k) and yk = w * k in
    let s0 = ref y.(yk) in
    let s1 = ref (if w > 1 then y.(yk + 1) else 0.0) in
    let s2 = ref (if w > 2 then y.(yk + 2) else 0.0) in
    let s3 = ref (if w > 3 then y.(yk + 3) else 0.0) in
    for m = t.first.(k) to k - 1 do
      let a = l.(rk + m) and ym = w * m in
      s0 := !s0 -. (a *. y.(ym));
      if w > 1 then s1 := !s1 -. (a *. y.(ym + 1));
      if w > 2 then s2 := !s2 -. (a *. y.(ym + 2));
      if w > 3 then s3 := !s3 -. (a *. y.(ym + 3))
    done;
    let d = l.(rk + k) in
    y.(yk) <- !s0 /. d;
    if w > 1 then y.(yk + 1) <- !s1 /. d;
    if w > 2 then y.(yk + 2) <- !s2 /. d;
    if w > 3 then y.(yk + 3) <- !s3 /. d
  done

let forward t l ~lanes y =
  check t l ~lanes y;
  match lanes with
  | 1 -> forward_lanes 1 t l y
  | 2 -> forward_lanes 2 t l y
  | 3 -> forward_lanes 3 t l y
  | _ -> forward_lanes 4 t l y

let[@inline] backward_lanes w t l y =
  for k = dim t - 1 downto 0 do
    let rk = t.base.(k) and yk = w * k in
    let d = l.(rk + k) in
    let y0 = y.(yk) /. d in
    let y1 = if w > 1 then y.(yk + 1) /. d else 0.0 in
    let y2 = if w > 2 then y.(yk + 2) /. d else 0.0 in
    let y3 = if w > 3 then y.(yk + 3) /. d else 0.0 in
    y.(yk) <- y0;
    if w > 1 then y.(yk + 1) <- y1;
    if w > 2 then y.(yk + 2) <- y2;
    if w > 3 then y.(yk + 3) <- y3;
    for m = t.first.(k) to k - 1 do
      let a = l.(rk + m) and ym = w * m in
      y.(ym) <- y.(ym) -. (a *. y0);
      if w > 1 then y.(ym + 1) <- y.(ym + 1) -. (a *. y1);
      if w > 2 then y.(ym + 2) <- y.(ym + 2) -. (a *. y2);
      if w > 3 then y.(ym + 3) <- y.(ym + 3) -. (a *. y3)
    done
  done

let backward t l ~lanes y =
  check t l ~lanes y;
  match lanes with
  | 1 -> backward_lanes 1 t l y
  | 2 -> backward_lanes 2 t l y
  | 3 -> backward_lanes 3 t l y
  | _ -> backward_lanes 4 t l y
