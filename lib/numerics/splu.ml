(* Sparse LU factorization with reusable symbolic structure, over the
   real and the complex field.

   Left-looking Gilbert-Peierls factorization of a CSR matrix: the
   first factorization performs partial pivoting and a depth-first
   symbolic reach per column; the pivot order and the L/U fill patterns
   ([sym]) are then kept, so later factorizations of a matrix with the
   *same sparsity pattern* (the SPICE situation: one netlist, many
   Newton iterations, timesteps or frequencies) skip all graph work and
   run a plain fixed-pattern numeric refill.

   One core, [gp_factor], is the whole field-independent half of the
   first factorization: CSC view, reach, pivot choice, L/U index
   patterns and the remap into pivot coordinates.  Each field hands it
   a [column] record of closures over its own unboxed value arrays for
   the numerics of one column, called once per reach entry.  The
   refill and the triangular solves, the hot path, are written out per
   field.  Every system goes through this one kernel, however small:
   even on the merged VCO's 23 unknowns it outruns a dense
   factorization, which visits every one of the n^2 entries.

   Global counters record fresh factorizations, pattern-reusing
   refactorizations and triangular solves, so tests and benchmarks can
   assert reuse (e.g. a linear fixed-step transient must factor exactly
   once for the whole run).  They are atomic so counts stay exact when
   independent solves run on parallel domains (Sn_engine.Pool). *)

exception Singular of int

let n_factor = Atomic.make 0
let n_refactor = Atomic.make 0
let n_solve = Atomic.make 0

let factorizations () = Atomic.get n_factor
let refactorizations () = Atomic.get n_refactor
let solves () = Atomic.get n_solve

(* ------------------------------------------------------------------ *)
(* Field-independent core *)

(* Symbolic half of a factor: immutable once built, so clones share it
   read-only (across domains too). *)
type sym = {
  n : int;
  perm : int array; (* perm.(k) = original row pivotal at step k *)
  (* input-matrix columns: row indices in pivot coordinates, values
     read through [aval_src] straight from the CSR value array *)
  acolptr : int array;
  arow : int array;
  aval_src : int array;
  (* L: CSC, strictly-lower row indices in pivot coordinates, unit
     diagonal implicit *)
  lcolptr : int array;
  lrow : int array;
  (* U: CSC, strictly-upper row indices in pivot coordinates, ascending
     within each column; the diagonal is kept apart by the field *)
  ucolptr : int array;
  urow : int array;
}

(* The numerics of one first-factorization column, supplied by a field
   over its dense scatter vector x (indexed by original row, all-zero
   between columns):
   - [scatter row src]: x(row) <- the A value at CSR index [src];
   - [eliminate lrow i lo hi]: if x(i) <> 0, x(lrow.(q)) -= L(q) x(i)
     for q in [lo, hi);
   - [magnitude i]: pivoting weight of x(i), zero iff x(i) = 0;
   - [pivot col i]: x(i) is the diagonal of step [col];
   - [push_l i]: append x(i) / diagonal to the L values;
   - [push_u i]: append x(i) to the U values;
   - [clear i]: x(i) <- 0. *)
type column = {
  scatter : int -> int -> unit;
  eliminate : int array -> int -> int -> int -> unit;
  magnitude : int -> float;
  pivot : int -> int -> unit;
  push_l : int -> unit;
  push_u : int -> unit;
  clear : int -> unit;
}

let gp_factor pattern c =
  let n = Sparse.rows pattern in
  let nnz = Sparse.nnz pattern in
  let row_ptr = Sparse.row_ptr pattern and col_idx = Sparse.col_idx pattern in
  (* CSC view of A carrying, for each entry, its index in the CSR value
     array so refactorization can reread values without re-sorting *)
  let acolptr = Array.make (n + 1) 0 in
  for p = 0 to nnz - 1 do
    acolptr.(col_idx.(p) + 1) <- acolptr.(col_idx.(p) + 1) + 1
  done;
  for j = 0 to n - 1 do
    acolptr.(j + 1) <- acolptr.(j + 1) + acolptr.(j)
  done;
  let cursor = Array.sub acolptr 0 n in
  let arow_orig = Array.make nnz 0 in
  let aval_src = Array.make nnz 0 in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let j = col_idx.(p) in
      let q = cursor.(j) in
      arow_orig.(q) <- i;
      aval_src.(q) <- p;
      cursor.(j) <- q + 1
    done
  done;
  (* Gilbert-Peierls state *)
  let pinv = Array.make n (-1) in
  let perm = Array.make n (-1) in
  let lcolptr = Array.make (n + 1) 0 in
  let ucolptr = Array.make (n + 1) 0 in
  let cap = max (2 * nnz) 16 in
  let lrow = Dyn.I.create ~capacity:cap () in
  let urow = Dyn.I.create ~capacity:cap () in
  let visited = Array.make n (-1) in
  let topo = Array.make n 0 in
  let stack = Array.make n 0 in
  let pstack = Array.make n 0 in
  let ucol = Array.make n 0 in (* one column's U steps, ascending *)
  for col = 0 to n - 1 do
    (* symbolic: reach of the A(:,col) nonzeros in the graph of the
       finished L columns, collected in reverse topological order in
       topo.(top..n-1) *)
    let top = ref n in
    for p = acolptr.(col) to acolptr.(col + 1) - 1 do
      let seed = arow_orig.(p) in
      if visited.(seed) <> col then begin
        let sp = ref 0 in
        stack.(0) <- seed;
        pstack.(0) <-
          (let k = pinv.(seed) in
           if k >= 0 then lcolptr.(k) else 0);
        visited.(seed) <- col;
        while !sp >= 0 do
          let i = stack.(!sp) in
          let k = pinv.(i) in
          let hi = if k >= 0 then lcolptr.(k + 1) else 0 in
          let next = pstack.(!sp) in
          if k >= 0 && next < hi then begin
            pstack.(!sp) <- next + 1;
            let child = Dyn.I.get lrow next in
            if visited.(child) <> col then begin
              visited.(child) <- col;
              incr sp;
              stack.(!sp) <- child;
              pstack.(!sp) <-
                (let ck = pinv.(child) in
                 if ck >= 0 then lcolptr.(ck) else 0)
            end
          end
          else begin
            decr top;
            topo.(!top) <- i;
            decr sp
          end
        done
      end
    done;
    (* numeric: sparse solve L x = A(:,col) along the reach *)
    for p = acolptr.(col) to acolptr.(col + 1) - 1 do
      c.scatter arow_orig.(p) aval_src.(p)
    done;
    for t = !top to n - 1 do
      let i = topo.(t) in
      let k = pinv.(i) in
      if k >= 0 then
        c.eliminate (Dyn.I.unsafe_data lrow) i lcolptr.(k) lcolptr.(k + 1)
    done;
    (* partial pivot among the not-yet-pivotal reach entries *)
    let piv = ref (-1) and piv_mag = ref 0.0 in
    for t = !top to n - 1 do
      let i = topo.(t) in
      if pinv.(i) < 0 then begin
        let mag = c.magnitude i in
        if mag > !piv_mag then begin
          piv := i;
          piv_mag := mag
        end
      end
    done;
    if !piv < 0 || not (Float.is_finite !piv_mag) || !piv_mag = 0.0 then begin
      (* keep the scatter vector clean before bailing out *)
      for t = !top to n - 1 do
        c.clear topo.(t)
      done;
      raise (Singular col)
    end;
    pinv.(!piv) <- col;
    perm.(col) <- !piv;
    c.pivot col !piv;
    (* L rows in reach order; finished pivots are U rows, inserted into
       [ucol] by step because refactorization walks U columns in
       ascending row order.  The pattern is kept even for exact numeric
       zeros so refactorization stays valid. *)
    let nu = ref 0 in
    for t = !top to n - 1 do
      let i = topo.(t) in
      if i <> !piv then begin
        let k = pinv.(i) in
        if k >= 0 then begin
          let q = ref !nu in
          while !q > 0 && ucol.(!q - 1) > k do
            ucol.(!q) <- ucol.(!q - 1);
            decr q
          done;
          ucol.(!q) <- k;
          incr nu
        end
        else begin
          Dyn.I.push lrow i;
          c.push_l i
        end
      end
    done;
    for q = 0 to !nu - 1 do
      Dyn.I.push urow ucol.(q);
      c.push_u perm.(ucol.(q))
    done;
    for t = !top to n - 1 do
      c.clear topo.(t)
    done;
    ucolptr.(col + 1) <- Dyn.I.length urow;
    lcolptr.(col + 1) <- Dyn.I.length lrow
  done;
  (* remap L rows and the A scatter rows into pivot coordinates *)
  let lrow = Dyn.I.to_array lrow in
  for p = 0 to Array.length lrow - 1 do
    lrow.(p) <- pinv.(lrow.(p))
  done;
  let arow = Array.make nnz 0 in
  for p = 0 to nnz - 1 do
    arow.(p) <- pinv.(arow_orig.(p))
  done;
  { n; perm; acolptr; arow; aval_src; lcolptr; lrow; ucolptr;
    urow = Dyn.I.to_array urow }

(* ------------------------------------------------------------------ *)
(* Real field *)

type t = {
  sym : sym;
  lval : float array;
  uval : float array;
  dval : float array; (* diagonal of U *)
  work : float array; (* dense scatter vector, zero after a completed refill *)
}

let factor m =
  let n = Sparse.rows m and vals = Sparse.values m in
  if Sparse.cols m <> n then invalid_arg "Splu.factor: matrix not square";
  Atomic.incr n_factor;
  let cap = max (2 * Sparse.nnz m) 16 in
  let lval = Dyn.F.create ~capacity:cap () in
  let uval = Dyn.F.create ~capacity:cap () in
  let dval = Array.make n 0.0 in
  let x = Array.make n 0.0 in
  let piv = ref 0 in
  let sym =
    gp_factor m
      {
        scatter = (fun row src -> x.(row) <- vals.(src));
        eliminate =
          (fun lrow i lo hi ->
            let xi = x.(i) in
            if xi <> 0.0 then begin
              let lv = Dyn.F.unsafe_data lval in
              for q = lo to hi - 1 do
                let r = lrow.(q) in
                x.(r) <- x.(r) -. (lv.(q) *. xi)
              done
            end);
        magnitude = (fun i -> Float.abs x.(i));
        pivot =
          (fun col i ->
            piv := i;
            dval.(col) <- x.(i));
        push_l = (fun i -> Dyn.F.push lval (x.(i) /. x.(!piv)));
        push_u = (fun i -> Dyn.F.push uval x.(i));
        clear = (fun i -> x.(i) <- 0.0);
      }
  in
  { sym; lval = Dyn.F.to_array lval; uval = Dyn.F.to_array uval; dval;
    work = x }

(* Numeric refill of an existing factor from a matrix with the same
   sparsity pattern: no reach computation, no pivot search. *)
let refactor { sym; lval; uval; dval; work = x } m =
  Atomic.incr n_refactor;
  if Sparse.rows m <> sym.n || Sparse.cols m <> sym.n then
    invalid_arg "Splu.refactor: dimension mismatch";
  let vals = Sparse.values m in
  if Array.length vals <> Array.length sym.aval_src then
    invalid_arg "Splu.refactor: sparsity pattern changed";
  (* Each entry of the scatter vector is zeroed as soon as it is read:
     U rows in topological order (no later update reaches row [k]), then
     the pivot, then the L rows as they are divided, so [x] is all-zero
     again when the column ends.  A [Singular] exit leaves the failed
     column's L rows set and needs no clear: the first column whose LU
     pattern holds a row holds it in A (fill at (r, c) needs L(r, k)
     for some k < c), and no earlier column touches that row, so the
     next refill's A scatter assigns it before anything reads it. *)
  for col = 0 to sym.n - 1 do
    for p = sym.acolptr.(col) to sym.acolptr.(col + 1) - 1 do
      x.(sym.arow.(p)) <- vals.(sym.aval_src.(p))
    done;
    for p = sym.ucolptr.(col) to sym.ucolptr.(col + 1) - 1 do
      let k = sym.urow.(p) in
      let xk = x.(k) in
      x.(k) <- 0.0;
      uval.(p) <- xk;
      if xk <> 0.0 then
        for q = sym.lcolptr.(k) to sym.lcolptr.(k + 1) - 1 do
          x.(sym.lrow.(q)) <- x.(sym.lrow.(q)) -. (lval.(q) *. xk)
        done
    done;
    let d = x.(col) in
    x.(col) <- 0.0;
    if d = 0.0 || not (Float.is_finite d) then raise (Singular col);
    dval.(col) <- d;
    for q = sym.lcolptr.(col) to sym.lcolptr.(col + 1) - 1 do
      let r = sym.lrow.(q) in
      lval.(q) <- x.(r) /. d;
      x.(r) <- 0.0
    done
  done

let solve { sym; lval; uval; dval; _ } b =
  Atomic.incr n_solve;
  let n = sym.n in
  if Array.length b <> n then invalid_arg "Splu.solve: dimension mismatch";
  let x = Array.make n 0.0 in
  for k = 0 to n - 1 do
    x.(k) <- b.(sym.perm.(k))
  done;
  for k = 0 to n - 1 do
    let xk = x.(k) in
    if xk <> 0.0 then
      for q = sym.lcolptr.(k) to sym.lcolptr.(k + 1) - 1 do
        x.(sym.lrow.(q)) <- x.(sym.lrow.(q)) -. (lval.(q) *. xk)
      done
  done;
  for k = n - 1 downto 0 do
    let xk = x.(k) /. dval.(k) in
    x.(k) <- xk;
    if xk <> 0.0 then
      for p = sym.ucolptr.(k) to sym.ucolptr.(k + 1) - 1 do
        x.(sym.urow.(p)) <- x.(sym.urow.(p)) -. (uval.(p) *. xk)
      done
  done;
  x

(* ------------------------------------------------------------------ *)
(* Complex field, for the frequency-domain engine.

   Split re/im value arrays keep every inner loop on unboxed floats — a
   [Complex.t array] would allocate one heap block per entry.  The
   numeric half [cnum] (L/U/D values plus the scatter workspace) is one
   copy per worker via {!Cplx.clone}, while the [sym] is shared
   read-only, so a frequency sweep pays the graph work exactly once and
   every parallel worker refills the same pivot order — which is what
   makes parallel sweeps byte-identical to sequential ones.

   Boxed [Complex.t] appears only at the [solve] boundaries. *)

module Cplx = struct
  type mat = { pattern : Sparse.t; re : float array; im : float array }

  let mat_of_pattern pattern =
    let nnz = Sparse.nnz pattern in
    { pattern; re = Array.make nnz 0.0; im = Array.make nnz 0.0 }

  let mat_clear m =
    Array.fill m.re 0 (Array.length m.re) 0.0;
    Array.fill m.im 0 (Array.length m.im) 0.0

  type cnum = {
    lre : float array;
    lim : float array;
    ure : float array;
    uim : float array;
    dgr : float array; (* diagonal of U *)
    dgi : float array;
    wkr : float array; (* scatter workspace, zero after a completed refill *)
    wki : float array;
  }

  type t = { sym : sym; num : cnum }

  (* pivots on |x|^2 *)
  let factor (m : mat) =
    let n = Sparse.rows m.pattern in
    if Sparse.cols m.pattern <> n then
      invalid_arg "Splu.Cplx.factor: matrix not square";
    Atomic.incr n_factor;
    let vre = m.re and vim = m.im in
    let cap = max (2 * Sparse.nnz m.pattern) 16 in
    let lre = Dyn.F.create ~capacity:cap () in
    let lim = Dyn.F.create ~capacity:cap () in
    let ure = Dyn.F.create ~capacity:cap () in
    let uim = Dyn.F.create ~capacity:cap () in
    let dgr = Array.make n 0.0 and dgi = Array.make n 0.0 in
    let xr = Array.make n 0.0 and xi = Array.make n 0.0 in
    let piv = ref 0 in
    let sym =
      gp_factor m.pattern
        {
          scatter =
            (fun row src ->
              xr.(row) <- vre.(src);
              xi.(row) <- vim.(src));
          eliminate =
            (fun lrow i lo hi ->
              let xir = xr.(i) and xii = xi.(i) in
              if xir <> 0.0 || xii <> 0.0 then begin
                let lr = Dyn.F.unsafe_data lre and li = Dyn.F.unsafe_data lim in
                for q = lo to hi - 1 do
                  let r = lrow.(q) in
                  xr.(r) <- xr.(r) -. ((lr.(q) *. xir) -. (li.(q) *. xii));
                  xi.(r) <- xi.(r) -. ((lr.(q) *. xii) +. (li.(q) *. xir))
                done
              end);
          magnitude = (fun i -> (xr.(i) *. xr.(i)) +. (xi.(i) *. xi.(i)));
          pivot =
            (fun col i ->
              piv := i;
              dgr.(col) <- xr.(i);
              dgi.(col) <- xi.(i));
          push_l =
            (fun i ->
              let dr = xr.(!piv) and di = xi.(!piv) in
              let den = (dr *. dr) +. (di *. di) in
              Dyn.F.push lre (((xr.(i) *. dr) +. (xi.(i) *. di)) /. den);
              Dyn.F.push lim (((xi.(i) *. dr) -. (xr.(i) *. di)) /. den));
          push_u =
            (fun i ->
              Dyn.F.push ure xr.(i);
              Dyn.F.push uim xi.(i));
          clear =
            (fun i ->
              xr.(i) <- 0.0;
              xi.(i) <- 0.0);
        }
    in
    { sym;
      num =
        { lre = Dyn.F.to_array lre; lim = Dyn.F.to_array lim;
          ure = Dyn.F.to_array ure; uim = Dyn.F.to_array uim; dgr; dgi;
          wkr = xr; wki = xi } }

  let refactor { sym; num } (m : mat) =
    Atomic.incr n_refactor;
    if Sparse.rows m.pattern <> sym.n || Sparse.cols m.pattern <> sym.n then
      invalid_arg "Splu.Cplx.refactor: dimension mismatch";
    let vre = m.re and vim = m.im in
    if Array.length vre <> Array.length sym.aval_src then
      invalid_arg "Splu.Cplx.refactor: sparsity pattern changed";
    let xr = num.wkr and xi = num.wki in
    (* entries are zeroed as they are read, and a [Singular] exit leaves
       them for the next A scatter, as in the real [refactor] *)
    for col = 0 to sym.n - 1 do
      for p = sym.acolptr.(col) to sym.acolptr.(col + 1) - 1 do
        xr.(sym.arow.(p)) <- vre.(sym.aval_src.(p));
        xi.(sym.arow.(p)) <- vim.(sym.aval_src.(p))
      done;
      for p = sym.ucolptr.(col) to sym.ucolptr.(col + 1) - 1 do
        let k = sym.urow.(p) in
        let ukr = xr.(k) and uki = xi.(k) in
        xr.(k) <- 0.0;
        xi.(k) <- 0.0;
        num.ure.(p) <- ukr;
        num.uim.(p) <- uki;
        if ukr <> 0.0 || uki <> 0.0 then
          for q = sym.lcolptr.(k) to sym.lcolptr.(k + 1) - 1 do
            let r = sym.lrow.(q) in
            let lr = num.lre.(q) and li = num.lim.(q) in
            xr.(r) <- xr.(r) -. ((lr *. ukr) -. (li *. uki));
            xi.(r) <- xi.(r) -. ((lr *. uki) +. (li *. ukr))
          done
      done;
      let dr = xr.(col) and di = xi.(col) in
      xr.(col) <- 0.0;
      xi.(col) <- 0.0;
      let den = (dr *. dr) +. (di *. di) in
      if den = 0.0 || not (Float.is_finite den) then raise (Singular col);
      num.dgr.(col) <- dr;
      num.dgi.(col) <- di;
      for q = sym.lcolptr.(col) to sym.lcolptr.(col + 1) - 1 do
        let r = sym.lrow.(q) in
        num.lre.(q) <- ((xr.(r) *. dr) +. (xi.(r) *. di)) /. den;
        num.lim.(q) <- ((xi.(r) *. dr) -. (xr.(r) *. di)) /. den;
        xr.(r) <- 0.0;
        xi.(r) <- 0.0
      done
    done

  let solve { sym; num } (b : Complex.t array) =
    Atomic.incr n_solve;
    let n = sym.n in
    if Array.length b <> n then
      invalid_arg "Splu.Cplx.solve: dimension mismatch";
    let xr = Array.make n 0.0 and xi = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let v = b.(sym.perm.(k)) in
      xr.(k) <- v.Complex.re;
      xi.(k) <- v.Complex.im
    done;
    for k = 0 to n - 1 do
      let vr = xr.(k) and vi = xi.(k) in
      if vr <> 0.0 || vi <> 0.0 then
        for q = sym.lcolptr.(k) to sym.lcolptr.(k + 1) - 1 do
          let r = sym.lrow.(q) in
          let lr = num.lre.(q) and li = num.lim.(q) in
          xr.(r) <- xr.(r) -. ((lr *. vr) -. (li *. vi));
          xi.(r) <- xi.(r) -. ((lr *. vi) +. (li *. vr))
        done
    done;
    for k = n - 1 downto 0 do
      let dr = num.dgr.(k) and di = num.dgi.(k) in
      let den = (dr *. dr) +. (di *. di) in
      let vr = ((xr.(k) *. dr) +. (xi.(k) *. di)) /. den in
      let vi = ((xi.(k) *. dr) -. (xr.(k) *. di)) /. den in
      xr.(k) <- vr;
      xi.(k) <- vi;
      if vr <> 0.0 || vi <> 0.0 then
        for p = sym.ucolptr.(k) to sym.ucolptr.(k + 1) - 1 do
          let r = sym.urow.(p) in
          let ur = num.ure.(p) and ui = num.uim.(p) in
          xr.(r) <- xr.(r) -. ((ur *. vr) -. (ui *. vi));
          xi.(r) <- xi.(r) -. ((ur *. vi) +. (ui *. vr))
        done
    done;
    Array.init n (fun k -> { Complex.re = xr.(k); im = xi.(k) })

  (* A = P^T L U, so A^T x = b is U^T z = b (forward, gathering along
     the stored U columns), L^T y = z (backward, along the L columns),
     x = P^T y.  The factorization of the forward system is reused;
     nothing is transposed or refactored. *)
  let solve_transpose { sym; num } (b : Complex.t array) =
    Atomic.incr n_solve;
    let n = sym.n in
    if Array.length b <> n then
      invalid_arg "Splu.Cplx.solve_transpose: dimension mismatch";
    let zr = Array.make n 0.0 and zi = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let accr = ref b.(k).Complex.re and acci = ref b.(k).Complex.im in
      for p = sym.ucolptr.(k) to sym.ucolptr.(k + 1) - 1 do
        let r = sym.urow.(p) in
        let ur = num.ure.(p) and ui = num.uim.(p) in
        accr := !accr -. ((ur *. zr.(r)) -. (ui *. zi.(r)));
        acci := !acci -. ((ur *. zi.(r)) +. (ui *. zr.(r)))
      done;
      let dr = num.dgr.(k) and di = num.dgi.(k) in
      let den = (dr *. dr) +. (di *. di) in
      zr.(k) <- ((!accr *. dr) +. (!acci *. di)) /. den;
      zi.(k) <- ((!acci *. dr) -. (!accr *. di)) /. den
    done;
    for k = n - 1 downto 0 do
      let accr = ref zr.(k) and acci = ref zi.(k) in
      for q = sym.lcolptr.(k) to sym.lcolptr.(k + 1) - 1 do
        let r = sym.lrow.(q) in
        let lr = num.lre.(q) and li = num.lim.(q) in
        accr := !accr -. ((lr *. zr.(r)) -. (li *. zi.(r)));
        acci := !acci -. ((lr *. zi.(r)) +. (li *. zr.(r)))
      done;
      zr.(k) <- !accr;
      zi.(k) <- !acci
    done;
    let x = Array.make n Complex.zero in
    for k = 0 to n - 1 do
      x.(sym.perm.(k)) <- { Complex.re = zr.(k); im = zi.(k) }
    done;
    x

  let clone { sym; num } =
    { sym;
      num =
        { lre = Array.copy num.lre; lim = Array.copy num.lim;
          ure = Array.copy num.ure; uim = Array.copy num.uim;
          dgr = Array.copy num.dgr; dgi = Array.copy num.dgi;
          wkr = Array.make sym.n 0.0; wki = Array.make sym.n 0.0 } }
end
