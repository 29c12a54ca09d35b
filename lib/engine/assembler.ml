(* Matrix assembly with a pattern that is discovered once and reused.

   The first assembly records the (row, col) add sequence.  The first
   solve compiles the triples into a CSR matrix plus a slot table
   mapping each add event to its position in the CSR value array, so
   every later assembly is a value refill in stamp order — no hashing,
   no allocation, no sorting.

   The factorization object ([Splu.t]) is created on the first solve
   and numerically refreshed afterwards, so the symbolic work (pivot
   order, fill pattern) happens once per netlist.  When the
   stamped values are known not to change between solves — a linear
   circuit on a fixed timestep — [freeze] pins the current
   factorization: subsequent [start]/[add] calls become no-ops and
   [solve] only performs the two triangular substitutions. *)

module N = Sn_numerics

type mode =
  | Collect of { ci : N.Dyn.I.t; cj : N.Dyn.I.t; cv : N.Dyn.F.t }
  | Refill of {
      slots : int array;
      n_ev : int;
      rvalues : float array;
      matrix : N.Sparse.t;
      mutable k : int;
    }

type t = {
  adim : int;
  mutable mode : mode;
  mutable factor : N.Splu.t option;
  mutable frozen : bool;
}

let create dim =
  if dim <= 0 then invalid_arg "Assembler.create: dimension must be > 0";
  let mode =
    Collect
      { ci = N.Dyn.I.create (); cj = N.Dyn.I.create (); cv = N.Dyn.F.create () }
  in
  { adim = dim; mode; factor = None; frozen = false }

let dim t = t.adim
let frozen t = t.frozen

let freeze t =
  if t.factor = None then invalid_arg "Assembler.freeze: nothing factored yet";
  t.frozen <- true

let unfreeze t = t.frozen <- false

let start t =
  if not t.frozen then
    match t.mode with
    | Collect { ci; cj; cv } ->
      N.Dyn.I.clear ci;
      N.Dyn.I.clear cj;
      N.Dyn.F.clear cv
    | Refill r ->
      Array.fill r.rvalues 0 (Array.length r.rvalues) 0.0;
      r.k <- 0

let add t i j v =
  if (not t.frozen) && i >= 0 && j >= 0 then
    match t.mode with
    | Collect { ci; cj; cv } ->
      N.Dyn.I.push ci i;
      N.Dyn.I.push cj j;
      N.Dyn.F.push cv v
    | Refill r ->
      if r.k >= r.n_ev then
        invalid_arg "Assembler.add: stamp sequence longer than recorded";
      let s = r.slots.(r.k) in
      r.rvalues.(s) <- r.rvalues.(s) +. v;
      r.k <- r.k + 1

(* Compile the recorded triples into CSR + slot table.  The pattern is
   built with unit weights so that structurally present entries survive
   even when their first numeric value is zero (a cutoff MOSFET's
   conductances, say, must stay in the pattern: later iterations fill
   them in). *)
let compile_pattern t ci cj cv =
  let n_ev = N.Dyn.I.length ci in
  let id = N.Dyn.I.unsafe_data ci
  and jd = N.Dyn.I.unsafe_data cj
  and vd = N.Dyn.F.unsafe_data cv in
  let b = N.Sparse.builder t.adim t.adim in
  for k = 0 to n_ev - 1 do
    N.Sparse.add b id.(k) jd.(k) 1.0
  done;
  let matrix = N.Sparse.finalize b in
  let slots = Array.make (max n_ev 1) 0 in
  for k = 0 to n_ev - 1 do
    slots.(k) <- N.Sparse.index matrix id.(k) jd.(k)
  done;
  let rvalues = N.Sparse.values matrix in
  Array.fill rvalues 0 (Array.length rvalues) 0.0;
  for k = 0 to n_ev - 1 do
    let s = slots.(k) in
    rvalues.(s) <- rvalues.(s) +. vd.(k)
  done;
  Refill { slots; n_ev; rvalues; matrix; k = n_ev }

let solve t rhs =
  if Array.length rhs <> t.adim then
    invalid_arg "Assembler.solve: rhs dimension mismatch";
  (match t.mode with
   | Collect { ci; cj; cv } -> t.mode <- compile_pattern t ci cj cv
   | Refill _ -> ());
  if not t.frozen then begin
    (* fault-injection site: pretend the factorization hit a zero
       pivot, so tests can drive the rescue paths on healthy circuits *)
    if Fault.fire Factor then raise (N.Splu.Singular (-1));
    match (t.mode, t.factor) with
    | Refill r, fo ->
      if r.k <> r.n_ev then
        invalid_arg "Assembler.solve: stamp sequence shorter than recorded";
      (match fo with
       | None -> t.factor <- Some (N.Splu.factor r.matrix)
       | Some f -> N.Splu.refactor f r.matrix)
    | Collect _, _ -> assert false
  end;
  N.Splu.solve (Option.get t.factor) rhs
