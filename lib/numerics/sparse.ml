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

type par = { width : int; run : int -> (int -> unit) -> unit }

let sequential =
  { width = 1; run = (fun n f -> for i = 0 to n - 1 do f i done) }

(* One row range's scratch: a dense accumulator over the columns, a
   mark array naming the row that last touched each column, and the
   [m] columns the current row [row] touched, in first-touch order. *)
type row_acc = {
  acc : float array;
  mark : int array;
  touched : int array;
  mutable m : int;
  mutable row : int;
}

let[@inline] accumulate a j v =
  let acc = a.acc in
  if a.mark.(j) <> a.row then begin
    a.mark.(j) <- a.row;
    acc.(j) <- 0.0 +. v;
    a.touched.(a.m) <- j;
    a.m <- a.m + 1
  end
  else acc.(j) <- acc.(j) +. v

(* the touched columns are distinct, so any sort gives the same row;
   a stencil row is a few dozen wide and takes an insertion sort *)
let sort_touched a =
  let t = a.touched and m = a.m in
  if m <= 32 then
    for p = 1 to m - 1 do
      let c = t.(p) in
      let q = ref (p - 1) in
      while !q >= 0 && t.(!q) > c do
        t.(!q + 1) <- t.(!q);
        decr q
      done;
      t.(!q + 1) <- c
    done
  else begin
    let seg = Array.sub t 0 m in
    Array.sort Int.compare seg;
    Array.blit seg 0 t 0 m
  end

(* a range holds at least this many rows: a thinner one costs more in
   scratch than it saves *)
let min_range_rows = 256

(* The CSR matrix whose row i is what [row a i] accumulates into [a],
   built in up to [par.width] contiguous row ranges, each with its own
   scratch, and concatenated in row order: the bits do not depend on
   the ranges.  [width] is the expected entries per row, a capacity
   hint. *)
let of_rows ?(par = sequential) ~width ~rows ~cols row =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.of_rows: negative dimension";
  let ranges = Int.max 1 (Int.min par.width (rows / min_range_rows)) in
  let ends = Array.make ranges [||]
  and idx = Array.make ranges [||]
  and vals = Array.make ranges [||] in
  par.run ranges (fun k ->
      let lo = k * rows / ranges and hi = (k + 1) * rows / ranges in
      let a =
        { acc = Array.make cols 0.0; mark = Array.make cols (-1);
          touched = Array.make cols 0; m = 0; row = -1 }
      in
      let ci = Dyn.I.create ~capacity:(width * (hi - lo)) ()
      and cv = Dyn.F.create ~capacity:(width * (hi - lo)) () in
      let e = Array.make (hi - lo) 0 in
      for i = lo to hi - 1 do
        a.row <- i;
        a.m <- 0;
        row a i;
        sort_touched a;
        for p = 0 to a.m - 1 do
          let j = a.touched.(p) in
          if a.acc.(j) <> 0.0 then begin
            Dyn.I.push ci j;
            Dyn.F.push cv a.acc.(j)
          end
        done;
        e.(i - lo) <- Dyn.I.length ci
      done;
      ends.(k) <- e;
      idx.(k) <- Dyn.I.to_array ci;
      vals.(k) <- Dyn.F.to_array cv);
  let row_ptr = Array.make (rows + 1) 0 in
  let base = ref 0 in
  for k = 0 to ranges - 1 do
    let lo = k * rows / ranges in
    Array.iteri (fun d e -> row_ptr.(lo + d + 1) <- !base + e) ends.(k);
    base := !base + Array.length idx.(k)
  done;
  let col_idx, values =
    if ranges = 1 then (idx.(0), vals.(0))
    else (Array.concat (Array.to_list idx), Array.concat (Array.to_list vals))
  in
  { nr = rows; nc = cols; row_ptr; col_idx; values }

let galerkin ?par p a =
  if a.nr <> a.nc || p.nr <> a.nr then
    invalid_arg "Sparse.galerkin: dimension mismatch";
  let n = p.nr and nc = p.nc in
  let p_ptr = p.row_ptr and p_idx = p.col_idx and p_w = p.values in
  (* P^T by a counting sort over the coarse columns: each coarse row
     lists its fine rows in ascending order *)
  let t_ptr = Array.make (nc + 1) 0 in
  Array.iter (fun c -> t_ptr.(c + 1) <- t_ptr.(c + 1) + 1) p_idx;
  for c = 0 to nc - 1 do
    t_ptr.(c + 1) <- t_ptr.(c + 1) + t_ptr.(c)
  done;
  let t_row = Array.make (Array.length p_idx) 0
  and t_w = Array.make (Array.length p_idx) 0.0 in
  let next = Array.sub t_ptr 0 nc in
  for i = 0 to n - 1 do
    for e = p_ptr.(i) to p_ptr.(i + 1) - 1 do
      let c = p_idx.(e) in
      t_row.(next.(c)) <- i;
      t_w.(next.(c)) <- p_w.(e);
      next.(c) <- next.(c) + 1
    done
  done;
  let a_ptr = a.row_ptr and a_idx = a.col_idx and a_val = a.values in
  of_rows ?par ~width:27 ~rows:nc ~cols:nc (fun acc ci ->
      for t = t_ptr.(ci) to t_ptr.(ci + 1) - 1 do
        let i = t_row.(t) and wi = t_w.(t) in
        for e = a_ptr.(i) to a_ptr.(i + 1) - 1 do
          let j = a_idx.(e) and aij = a_val.(e) in
          for f = p_ptr.(j) to p_ptr.(j + 1) - 1 do
            accumulate acc p_idx.(f) (wi *. p_w.(f) *. aij)
          done
        done
      done)

(* Each node's branches in ascending order: a counting sort over both
   endpoints, a self-loop listed once. *)
let incidence ~nodes ~len bi bj =
  let ptr = Array.make (nodes + 1) 0 in
  for k = 0 to len - 1 do
    let u = bi.(k) and v = bj.(k) in
    if u < 0 || u >= nodes || v < 0 || v >= nodes then
      invalid_arg
        (Printf.sprintf
           "Sparse.laplacian_blocks: branch %d (%d,%d) out of %d nodes" k u v
           nodes);
    ptr.(u + 1) <- ptr.(u + 1) + 1;
    if v <> u then ptr.(v + 1) <- ptr.(v + 1) + 1
  done;
  for i = 0 to nodes - 1 do
    ptr.(i + 1) <- ptr.(i + 1) + ptr.(i)
  done;
  let inc = Array.make ptr.(nodes) 0 and next = Array.sub ptr 0 nodes in
  for k = 0 to len - 1 do
    let u = bi.(k) and v = bj.(k) in
    inc.(next.(u)) <- k;
    next.(u) <- next.(u) + 1;
    if v <> u then begin
      inc.(next.(v)) <- k;
      next.(v) <- next.(v) + 1
    end
  done;
  (ptr, inc)

let laplacian_blocks ?par ~interior:n_i ~retained:r ~len bi bj bg =
  if n_i < 0 || r < 0 then
    invalid_arg "Sparse.laplacian_blocks: negative dimension";
  let ptr, inc = incidence ~nodes:(n_i + r) ~len bi bj in
  let rr = Array.make (r * r) 0.0 in
  let stamp a b g = rr.((a * r) + b) <- rr.((a * r) + b) +. g in
  for k = 0 to len - 1 do
    let u = bi.(k) and v = bj.(k) and g = bg.(k) in
    match (u < n_i, v < n_i) with
    | true, true -> ()
    | true, false -> stamp (v - n_i) (v - n_i) g
    | false, true -> stamp (u - n_i) (u - n_i) g
    | false, false ->
      let ru = u - n_i and rv = v - n_i in
      stamp ru ru g;
      stamp rv rv g;
      stamp ru rv (-.g);
      stamp rv ru (-.g)
  done;
  let dim = Int.max n_i 1 in
  let ii =
    of_rows ?par ~width:7 ~rows:dim ~cols:dim (fun a i ->
        if i < n_i then
          for t = ptr.(i) to ptr.(i + 1) - 1 do
            let k = inc.(t) in
            let u = bi.(k) and v = bj.(k) and g = bg.(k) in
            if u = v then begin
              (* the four stamps of a self-loop all land on (i, i) *)
              accumulate a i g;
              accumulate a i g;
              accumulate a i (-.g);
              accumulate a i (-.g)
            end
            else begin
              accumulate a i g;
              let o = if u = i then v else u in
              if o < n_i then accumulate a o (-.g)
            end
          done)
  in
  let ri =
    of_rows ?par ~width:8 ~rows:r ~cols:dim (fun a q ->
        let node = n_i + q in
        for t = ptr.(node) to ptr.(node + 1) - 1 do
          let k = inc.(t) in
          let o = if bi.(k) = node then bj.(k) else bi.(k) in
          if o < n_i then accumulate a o (-.bg.(k))
        done)
  in
  (ii, ri, rr)

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

let to_dense m =
  let d = Mat.make m.nr m.nc in
  for i = 0 to m.nr - 1 do
    iter_row m i (fun j v -> Mat.set d i j v)
  done;
  d
