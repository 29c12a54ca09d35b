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

let check t l y =
  check_storage t l;
  if Array.length y <> dim t then
    invalid_arg "Chol: vector length does not match the factor"

let forward t l y =
  check t l y;
  for k = 0 to dim t - 1 do
    let rk = t.base.(k) in
    let s = ref y.(k) in
    for m = t.first.(k) to k - 1 do
      s := !s -. (l.(rk + m) *. y.(m))
    done;
    y.(k) <- !s /. l.(rk + k)
  done

let backward t l y =
  check t l y;
  for k = dim t - 1 downto 0 do
    let rk = t.base.(k) in
    let yk = y.(k) /. l.(rk + k) in
    y.(k) <- yk;
    for m = t.first.(k) to k - 1 do
      y.(m) <- y.(m) -. (l.(rk + m) *. yk)
    done
  done
