type t = {
  nr : int;
  nc : int;
  row_ptr : int array; (* length nr + 1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array; (* length nnz *)
}

(* The builder accumulates (row, col, value) triples in flat growable
   arrays: one unboxed int/float push per entry instead of a heap block
   per entry, which matters when assembling 10^5..10^6 conductances from
   a substrate grid. *)
type builder = {
  bnr : int;
  bnc : int;
  bri : Dyn.I.t;
  bci : Dyn.I.t;
  bvv : Dyn.F.t;
}

let builder nr nc =
  if nr < 0 || nc < 0 then invalid_arg "Sparse.builder: negative dimension";
  { bnr = nr; bnc = nc; bri = Dyn.I.create (); bci = Dyn.I.create ();
    bvv = Dyn.F.create () }

let add b i j v =
  if i < 0 || i >= b.bnr || j < 0 || j >= b.bnc then
    invalid_arg
      (Printf.sprintf "Sparse.add: (%d,%d) out of %dx%d" i j b.bnr b.bnc);
  if v <> 0.0 then begin
    Dyn.I.push b.bri i;
    Dyn.I.push b.bci j;
    Dyn.F.push b.bvv v
  end

(* Linear-time compression: a stable counting sort places the triples
   row by row in insertion order, a stable sort by column within each
   row keeps duplicates in that order, and each run of equal columns
   is then summed left to right.  Rows of a conductance stencil hold a
   handful of entries, so the per-row sort is an insertion sort; wider
   rows fall back to a stable merge sort. *)
let finalize b =
  let n = Dyn.I.length b.bri and nr = b.bnr in
  let ri = Dyn.I.unsafe_data b.bri
  and ci = Dyn.I.unsafe_data b.bci
  and vv = Dyn.F.unsafe_data b.bvv in
  let start = Array.make (nr + 1) 0 in
  for k = 0 to n - 1 do
    start.(ri.(k) + 1) <- start.(ri.(k) + 1) + 1
  done;
  for i = 0 to nr - 1 do
    start.(i + 1) <- start.(i + 1) + start.(i)
  done;
  let next = Array.sub start 0 nr in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let i = ri.(k) in
    order.(next.(i)) <- k;
    next.(i) <- next.(i) + 1
  done;
  for i = 0 to nr - 1 do
    let lo = start.(i) and hi = start.(i + 1) in
    if hi - lo <= 32 then
      for p = lo + 1 to hi - 1 do
        let k = order.(p) in
        let c = ci.(k) in
        let q = ref (p - 1) in
        while !q >= lo && ci.(order.(!q)) > c do
          order.(!q + 1) <- order.(!q);
          decr q
        done;
        order.(!q + 1) <- k
      done
    else begin
      let seg = Array.sub order lo (hi - lo) in
      Array.stable_sort (fun a c -> Int.compare ci.(a) ci.(c)) seg;
      Array.blit seg 0 order lo (hi - lo)
    end
  done;
  (* sum duplicates, dropping entries that cancel to exactly 0 *)
  let row_ptr = Array.make (nr + 1) 0 in
  let col_idx = Array.make n 0 and values = Array.make n 0.0 in
  let nnz = ref 0 in
  for i = 0 to nr - 1 do
    let p = ref start.(i) and hi = start.(i + 1) in
    while !p < hi do
      let j = ci.(order.(!p)) in
      let acc = ref 0.0 in
      while !p < hi && ci.(order.(!p)) = j do
        acc := !acc +. vv.(order.(!p));
        incr p
      done;
      if !acc <> 0.0 then begin
        col_idx.(!nnz) <- j;
        values.(!nnz) <- !acc;
        incr nnz
      end
    done;
    row_ptr.(i + 1) <- !nnz
  done;
  { nr; nc = b.bnc; row_ptr;
    col_idx = Array.sub col_idx 0 !nnz;
    values = Array.sub values 0 !nnz }

let of_csr ~rows ~cols ~row_ptr ~col_idx ~values =
  let bad what = invalid_arg ("Sparse.of_csr: " ^ what) in
  if rows < 0 || cols < 0 then bad "negative dimension";
  if Array.length row_ptr <> rows + 1 || row_ptr.(0) <> 0 then
    bad "row_ptr shape";
  let nnz = row_ptr.(rows) in
  if Array.length col_idx <> nnz || Array.length values <> nnz then
    bad "col_idx/values length";
  for i = 0 to rows - 1 do
    if row_ptr.(i + 1) < row_ptr.(i) then bad "row_ptr not monotone"
  done;
  for i = 0 to rows - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    for k = lo to hi - 1 do
      let j = col_idx.(k) in
      if j < 0 || j >= cols || (k > lo && j <= col_idx.(k - 1)) then
        bad "columns out of range or not strictly ascending"
    done
  done;
  { nr = rows; nc = cols; row_ptr; col_idx; values }

let rows m = m.nr
let cols m = m.nc
let nnz m = Array.length m.values

let index m i j =
  if i < 0 || i >= m.nr || j < 0 || j >= m.nc then
    invalid_arg "Sparse.index: out of bounds";
  let lo = m.row_ptr.(i) and hi = m.row_ptr.(i + 1) - 1 in
  let rec search lo hi =
    if lo > hi then -1
    else begin
      let mid = (lo + hi) / 2 in
      let c = m.col_idx.(mid) in
      if c = j then mid
      else if c < j then search (mid + 1) hi
      else search lo (mid - 1)
    end
  in
  search lo hi

let get m i j =
  if i < 0 || i >= m.nr || j < 0 || j >= m.nc then
    invalid_arg "Sparse.get: out of bounds";
  match index m i j with -1 -> 0.0 | k -> m.values.(k)

let row_ptr m = m.row_ptr
let col_idx m = m.col_idx
let values m = m.values

(* [w] interleaved vectors, entry (i, c) at [w * i + c]: each decoded
   entry serves every lane, and lane c sums in the order of a one-lane
   product of its own column.  Called with a constant [w], the inlined
   body folds the [if w > c] guards away. *)
let[@inline] mul_lanes w m v y =
  let rp = m.row_ptr and ci = m.col_idx and va = m.values in
  for i = 0 to m.nr - 1 do
    let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
    for k = rp.(i) to rp.(i + 1) - 1 do
      let a = va.(k) and j = w * ci.(k) in
      s0 := !s0 +. (a *. v.(j));
      if w > 1 then s1 := !s1 +. (a *. v.(j + 1));
      if w > 2 then s2 := !s2 +. (a *. v.(j + 2));
      if w > 3 then s3 := !s3 +. (a *. v.(j + 3))
    done;
    let yi = w * i in
    y.(yi) <- !s0;
    if w > 1 then y.(yi + 1) <- !s1;
    if w > 2 then y.(yi + 2) <- !s2;
    if w > 3 then y.(yi + 3) <- !s3
  done

let mul_vec_into m ~lanes v y =
  if lanes < 1 || lanes > 4 then
    invalid_arg "Sparse.mul_vec: lanes must be 1..4";
  if Array.length v <> lanes * m.nc || Array.length y <> lanes * m.nr then
    invalid_arg "Sparse.mul_vec: dimension mismatch";
  match lanes with
  | 1 -> mul_lanes 1 m v y
  | 2 -> mul_lanes 2 m v y
  | 3 -> mul_lanes 3 m v y
  | _ -> mul_lanes 4 m v y

let mul_vec m v =
  let y = Vec.zeros m.nr in
  mul_vec_into m ~lanes:1 v y;
  y

let diagonal m =
  if m.nr <> m.nc then invalid_arg "Sparse.diagonal: matrix not square";
  Vec.init m.nr (fun i -> get m i i)

let iter_row m i f =
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done

let is_symmetric ?(tol = 1e-9) m =
  m.nr = m.nc
  &&
  let ok = ref true in
  for i = 0 to m.nr - 1 do
    iter_row m i (fun j v ->
        if Float.abs (v -. get m j i) > tol then ok := false)
  done;
  !ok

let to_dense m =
  let d = Mat.make m.nr m.nc in
  for i = 0 to m.nr - 1 do
    iter_row m i (fun j v -> Mat.set d i j v)
  done;
  d
