(* Compiled complex frequency-domain plan: the G + jwB split.

   The dense AC path used to rebuild an n x n complex matrix at every
   frequency point and re-evaluate every nonlinear device's
   small-signal parameters (MOSFET transconductances, varactor C(V))
   while doing so — although neither depends on frequency, only on the
   DC bias.  This module stamps the plan through the shared stamp rule
   ({!Stamp_plan.stamp}, MOSFETs linearized at the bias) exactly once
   per (plan, operating point) pair and splits every stamp into a
   frequency-independent real conductance event G (resistors,
   gm/gmb/gds, source and inductor branch connections) and a
   susceptance event B (capacitors, varactor C(V_dc), inductor -L on
   its branch row), each resolved to a slot in one shared CSR pattern.
   Assembling the system at angular frequency w is then a slot-replay
   refill [G + jwB] into reused split re/im value arrays: zero
   allocation, zero device evaluation, no hashing.

   The pattern is built with unit weights so structurally present
   entries survive a zero first value (a cutoff MOSFET's conductances
   must stay in the pattern).  One symbolic factorization (the
   "master", created by {!ensure_master} before a sweep goes parallel)
   fixes the pivot order; every worker domain owns a private
   {!workspace} and a {!N.Splu.Cplx.clone} of the master, so parallel
   frequency sweeps are byte-identical to sequential ones. *)

module C = Sn_circuit
module N = Sn_numerics
module P = Stamp_plan

type t = {
  plan : Stamp_plan.t;
  adim : int;
  pattern : N.Sparse.t; (* shared, read-only after compile *)
  g_slots : int array;
  g_vals : float array;
  b_slots : int array;
  b_vals : float array;
  rhs_slots : int array;
  rhs_vals : float array;
  mutable master : N.Splu.Cplx.t option;
  master_lock : Mutex.t;
}

(* Per-worker mutable state: the split re/im value arrays over the
   shared pattern, the stimulus vector, and this worker's clone of the
   factorization.  Never crosses domains. *)
type workspace = {
  mat : N.Splu.Cplx.mat;
  rhs : Complex.t array;
  mutable factor : N.Splu.Cplx.t option;
}

let plan t = t.plan
let dim t = t.adim
let nnz t = N.Sparse.nnz t.pattern

let workspace t =
  { mat = N.Splu.Cplx.mat_of_pattern t.pattern;
    rhs = Array.make t.adim Complex.zero;
    factor = None }

(* One cached workspace per domain, keyed by the plan it belongs to:
   a pool worker that processes many points of the same sweep reuses
   its arrays across all of them. *)
let ws_cache : (t * workspace) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let domain_workspace t =
  let cell = Domain.DLS.get ws_cache in
  match !cell with
  | Some (t', ws) when t' == t -> ws
  | _ ->
    let ws = workspace t in
    cell := Some (t, ws);
    ws

let compile (plan : Stamp_plan.t) dcx =
  let adim = Stamp_plan.dim plan in
  let gi = N.Dyn.I.create () and gj = N.Dyn.I.create ()
  and gv = N.Dyn.F.create () in
  let bi = N.Dyn.I.create () and bj = N.Dyn.I.create ()
  and bv = N.Dyn.F.create () in
  let ri = N.Dyn.I.create () and rv = N.Dyn.F.create () in
  let g i j v =
    if i >= 0 && j >= 0 then begin
      N.Dyn.I.push gi i;
      N.Dyn.I.push gj j;
      N.Dyn.F.push gv v
    end
  in
  let b i j v =
    if i >= 0 && j >= 0 then begin
      N.Dyn.I.push bi i;
      N.Dyn.I.push bj j;
      N.Dyn.F.push bv v
    end
  in
  let inject i v =
    if i >= 0 then begin
      N.Dyn.I.push ri i;
      N.Dyn.F.push rv v
    end
  in
  (* the susceptances: capacitors, varactors at C(V_dc) — evaluated
     once for the whole sweep — and -L on the inductor's branch row;
     the MOSFET capacitances were expanded into capacitors by the
     plan *)
  let reactive _ = function
    | P.Capacitor { i; j; c; _ } -> P.admittance b i j c
    | P.Varactor { i; j; vmodel; fm; _ } ->
      P.admittance b i j
        (C.Varactor_model.capacitance vmodel (P.volt dcx i -. P.volt dcx j)
        *. fm)
    | P.Inductor { b = br; henries; _ } -> b br br (-.henries)
    | _ -> ()
  in
  (* the gmin floor keeps isolated nodes from making the system
     singular — same constant as the dense reference path *)
  P.assemble { P.add = g; inject } ~lin:(P.Bias dcx)
    ~source:(fun _ ac_mag -> ac_mag)
    ~reactive ~gmin:Stamp_plan.node_gmin plan;
  (* one pattern over the union of G and B coordinates, built with unit
     weights so structural zeros survive *)
  let builder = N.Sparse.builder adim adim in
  let n_g = N.Dyn.I.length gi and n_b = N.Dyn.I.length bi in
  for k = 0 to n_g - 1 do
    N.Sparse.add builder (N.Dyn.I.get gi k) (N.Dyn.I.get gj k) 1.0
  done;
  for k = 0 to n_b - 1 do
    N.Sparse.add builder (N.Dyn.I.get bi k) (N.Dyn.I.get bj k) 1.0
  done;
  let pattern = N.Sparse.finalize builder in
  {
    plan;
    adim;
    pattern;
    g_slots =
      Array.init n_g (fun k ->
          N.Sparse.index pattern (N.Dyn.I.get gi k) (N.Dyn.I.get gj k));
    g_vals = N.Dyn.F.to_array gv;
    b_slots =
      Array.init n_b (fun k ->
          N.Sparse.index pattern (N.Dyn.I.get bi k) (N.Dyn.I.get bj k));
    b_vals = N.Dyn.F.to_array bv;
    rhs_slots = N.Dyn.I.to_array ri;
    rhs_vals = N.Dyn.F.to_array rv;
    master = None;
    master_lock = Mutex.create ();
  }

let of_dc plan dc = compile plan (Dc.unknowns dc)

(* Per-frequency system assembly: the slot-replay G + jwB refill. *)
let refill t ws ~omega =
  N.Splu.Cplx.mat_clear ws.mat;
  let re = ws.mat.N.Splu.Cplx.re and im = ws.mat.N.Splu.Cplx.im in
  let gs = t.g_slots and gv = t.g_vals in
  for k = 0 to Array.length gs - 1 do
    let s = gs.(k) in
    re.(s) <- re.(s) +. gv.(k)
  done;
  let bs = t.b_slots and bv = t.b_vals in
  for k = 0 to Array.length bs - 1 do
    let s = bs.(k) in
    im.(s) <- im.(s) +. (omega *. bv.(k))
  done

let raise_singular t ~analysis ~freq col =
  raise
    (Diag.Error
       (Diag.Singular_pivot
          { loc = Diag.loc analysis ~freq; pivot = col;
            unknown = Diag.unknown_of_slot (Stamp_plan.mna t.plan) col }))

(* Take a factorization for this workspace: clone the shared master if
   it exists, otherwise become it.  Factoring happens under the lock so
   exactly one pivot order ever exists per plan; cloning only copies
   numeric arrays, which the subsequent refactor overwrites anyway. *)
let acquire_factor t ws =
  Mutex.lock t.master_lock;
  match t.master with
  | Some m ->
    let c = N.Splu.Cplx.clone m in
    Mutex.unlock t.master_lock;
    `Refactor c
  | None ->
    (match N.Splu.Cplx.factor ws.mat with
     | f ->
       t.master <- Some f;
       Mutex.unlock t.master_lock;
       `Fresh f
     | exception e ->
       Mutex.unlock t.master_lock;
       raise e)

(* Assemble and factorize the system at [freq] into [ws]; after this
   returns, [ws] holds a valid factorization for forward and transpose
   solves.  Singularities (and the injected-fault site) surface as a
   {!Diag.Singular_pivot} naming the offending unknown. *)
let prepare_at ?(analysis = "ac") t ws ~freq =
  if freq < 0.0 then invalid_arg "Ac.solve: freq must be >= 0";
  let omega = N.Units.two_pi *. freq in
  refill t ws ~omega;
  (* fault-injection site: the frequency-domain factorization *)
  if Fault.fire Factor then raise_singular t ~analysis ~freq (-1);
  try
    match ws.factor with
    | Some f -> N.Splu.Cplx.refactor f ws.mat
    | None ->
      (match acquire_factor t ws with
       | `Fresh f -> ws.factor <- Some f
       | `Refactor f ->
         N.Splu.Cplx.refactor f ws.mat;
         ws.factor <- Some f)
  with N.Splu.Singular col -> raise_singular t ~analysis ~freq col

(* Fix the master factorization (pivot order and fill pattern) at a
   deterministic point before a sweep goes parallel, so every worker
   clones the same symbolic structure regardless of which frequency it
   happens to claim first. *)
let ensure_master ?analysis t ~freq = prepare_at ?analysis t (domain_workspace t) ~freq

let solve_stimulus t ws =
  Array.fill ws.rhs 0 t.adim Complex.zero;
  let rs = t.rhs_slots and rvals = t.rhs_vals in
  for k = 0 to Array.length rs - 1 do
    let s = rs.(k) in
    ws.rhs.(s) <- Complex.add ws.rhs.(s) { Complex.re = rvals.(k); im = 0.0 }
  done;
  N.Splu.Cplx.solve (Option.get ws.factor) ws.rhs

let solve_transpose ws b = N.Splu.Cplx.solve_transpose (Option.get ws.factor) b
