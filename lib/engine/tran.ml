module C = Sn_circuit
module N = Sn_numerics
module P = Stamp_plan

let log_src = Logs.Src.create "sn.engine.tran" ~doc:"transient analysis"

module Log = (val Logs.src_log log_src : Logs.LOG)

type method_ = Backward_euler | Trapezoidal

type initial_condition = Operating_point | Uic of (string * float) list

type options = {
  method_ : method_;
  max_newton : int;
  ic : initial_condition;
  record : string list option;
  linear_fast_path : bool;
  max_step_retries : int;
}

let default_options =
  { method_ = Trapezoidal; max_newton = 50; ic = Operating_point;
    record = None; linear_fast_path = true; max_step_retries = 6 }

(* max |delta x| at which a time point's Newton loop stops *)
let newton_tolerance = 1e-9

exception Step_failed of { time : float; iterations : int }

type dataset = {
  times : float array;
  names : string array;
  data : float array array;
  truncated : Diag.t option;
}

(* Dynamic-element state carried between time points, as flat arrays
   indexed by the plan's per-kind slots ([ci] / [qi] / [li]) — the hot
   loop touches no hashtables. *)
type state = {
  cap_v : float array;  (* capacitor voltage at accepted point *)
  cap_i : float array;  (* capacitor current at accepted point *)
  q_prev : float array;  (* varactor charge *)
  vq_prev : float array;
  iq_prev : float array;
  il_prev : float array;  (* inductor current *)
  vl_prev : float array;
}

let init_state (plan : P.t) x0 =
  let mk n = Array.make (max n 1) 0.0 in
  let st =
    { cap_v = mk plan.P.n_caps; cap_i = mk plan.P.n_caps;
      q_prev = mk plan.P.n_charges; vq_prev = mk plan.P.n_charges;
      iq_prev = mk plan.P.n_charges; il_prev = mk plan.P.n_inds;
      vl_prev = mk plan.P.n_inds }
  in
  Array.iter
    (fun (e : P.elt) ->
      match e with
      | P.Capacitor { ci; i; j; _ } ->
        st.cap_v.(ci) <- P.volt x0 i -. P.volt x0 j
      | P.Varactor { qi; i; j; vmodel; fm } ->
        let v = P.volt x0 i -. P.volt x0 j in
        st.q_prev.(qi) <- C.Varactor_model.charge vmodel v *. fm;
        st.vq_prev.(qi) <- v
      | P.Inductor { li; b; i; j; _ } ->
        st.il_prev.(li) <- x0.(b);
        st.vl_prev.(li) <- P.volt x0 i -. P.volt x0 j
      | _ -> ())
    plan.P.elts;
  st

let clone_state st =
  { cap_v = Array.copy st.cap_v; cap_i = Array.copy st.cap_i;
    q_prev = Array.copy st.q_prev; vq_prev = Array.copy st.vq_prev;
    iq_prev = Array.copy st.iq_prev; il_prev = Array.copy st.il_prev;
    vl_prev = Array.copy st.vl_prev }

let copy_state ~src ~dst =
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  blit src.cap_v dst.cap_v;
  blit src.cap_i dst.cap_i;
  blit src.q_prev dst.q_prev;
  blit src.vq_prev dst.vq_prev;
  blit src.iq_prev dst.iq_prev;
  blit src.il_prev dst.il_prev;
  blit src.vl_prev dst.vl_prev

(* Companion coefficients for a linear capacitance. *)
let cap_companion options ~h ~v_prev ~i_prev c =
  match options.method_ with
  | Backward_euler ->
    let geq = c /. h in
    (geq, -.(geq *. v_prev))
  | Trapezoidal ->
    let geq = 2.0 *. c /. h in
    (geq, -.(geq *. v_prev) -. i_prev)

(* Assemble the companion-model MNA system at time [t], candidate [x]:
   the DC Newton system with every source at its value at [t] and the
   dynamic elements replaced by their companions.  The walk is over the
   compiled plan, so the per-iteration cost is pure numeric stamping;
   the assembler reuses its sparsity pattern (and, when frozen, skips
   matrix work entirely). *)
let assemble (plan : P.t) asm rhs options (state : state) ~h ~t x =
  let companion (s : P.sink) i j (geq, ieq) =
    P.admittance s.add i j geq;
    s.inject i (-.ieq);
    s.inject j ieq
  in
  let reactive (s : P.sink) = function
    | P.Capacitor { ci; i; j; c } ->
      companion s i j
        (cap_companion options ~h ~v_prev:state.cap_v.(ci)
           ~i_prev:state.cap_i.(ci) c)
    | P.Varactor { qi; i; j; vmodel; fm } ->
      let v = P.volt x i -. P.volt x j in
      let cv = C.Varactor_model.capacitance vmodel v *. fm in
      let qv = C.Varactor_model.charge vmodel v *. fm in
      companion s i j
        (match options.method_ with
         | Backward_euler ->
           let geq = cv /. h in
           (geq, ((qv -. state.q_prev.(qi)) /. h) -. (geq *. v))
         | Trapezoidal ->
           let geq = 2.0 *. cv /. h in
           ( geq,
             (2.0 *. (qv -. state.q_prev.(qi)) /. h)
             -. state.iq_prev.(qi) -. (geq *. v) ))
    | P.Inductor { li; b; henries; _ } -> (
      match options.method_ with
      | Backward_euler ->
        let z = henries /. h in
        s.add b b (-.z);
        s.inject b (-.(z *. state.il_prev.(li)))
      | Trapezoidal ->
        let z = 2.0 *. henries /. h in
        s.add b b (-.z);
        s.inject b (-.(z *. state.il_prev.(li)));
        s.inject b (-.state.vl_prev.(li)))
    | _ -> ()
  in
  Dc.assemble_plan ~reactive
    ~source:(fun wave _ -> C.Waveform.value wave t)
    plan asm rhs ~gmin:Dc.gmin x

(* Solve one time point.  A linear plan on the fast path needs no
   Newton loop: the matrix does not depend on [x], so a single assembly
   (a no-op once the assembler is frozen) and one solve suffice. *)
let solve_point ?(fault_scope = 0) plan asm rhs options state ~h ~t x_guess =
  (* fault-injection site: pretend this time-point solve stalled *)
  if Fault.fire ~scope_index:fault_scope Tran_solve then
    raise (Step_failed { time = t; iterations = 0 });
  if P.linear plan && options.linear_fast_path then begin
    assemble plan asm rhs options state ~h ~t x_guess;
    try Assembler.solve asm rhs
    with N.Splu.Singular _ -> raise (Step_failed { time = t; iterations = 0 })
  end
  else begin
    let dim = P.dim plan in
    let x = Array.copy x_guess in
    let rec newton k =
      if k >= options.max_newton then
        raise (Step_failed { time = t; iterations = k });
      assemble plan asm rhs options state ~h ~t x;
      let x_new =
        try Assembler.solve asm rhs
        with N.Splu.Singular _ ->
          raise (Step_failed { time = t; iterations = k })
      in
      let max_delta = ref 0.0 in
      for i = 0 to dim - 1 do
        max_delta := Float.max !max_delta (Float.abs (x_new.(i) -. x.(i)));
        x.(i) <- x_new.(i)
      done;
      if !max_delta < newton_tolerance then x else newton (k + 1)
    in
    newton 0
  end

(* After accepting a step, refresh the dynamic-element states. *)
let update_state (plan : P.t) options (state : state) ~h x =
  Array.iter
    (fun (e : P.elt) ->
      match e with
      | P.Capacitor { ci; i; j; c } ->
        let v = P.volt x i -. P.volt x j in
        let geq, ieq =
          cap_companion options ~h ~v_prev:state.cap_v.(ci)
            ~i_prev:state.cap_i.(ci) c
        in
        state.cap_i.(ci) <- (geq *. v) +. ieq;
        state.cap_v.(ci) <- v
      | P.Varactor { qi; i; j; vmodel; fm } ->
        let v = P.volt x i -. P.volt x j in
        let q = C.Varactor_model.charge vmodel v *. fm in
        let i_new =
          match options.method_ with
          | Backward_euler -> (q -. state.q_prev.(qi)) /. h
          | Trapezoidal ->
            (2.0 *. (q -. state.q_prev.(qi)) /. h) -. state.iq_prev.(qi)
        in
        state.q_prev.(qi) <- q;
        state.vq_prev.(qi) <- v;
        state.iq_prev.(qi) <- i_new
      | P.Inductor { li; b; i; j; _ } ->
        state.il_prev.(li) <- x.(b);
        state.vl_prev.(li) <- P.volt x i -. P.volt x j
      | _ -> ())
    plan.P.elts

let initial_unknowns mna plan options =
  match options.ic with
  | Operating_point -> Dc.unknowns (Dc.solve_plan plan)
  | Uic pairs ->
    let x = Array.make (Mna.dim mna) 0.0 in
    List.iter
      (fun (node, v) ->
        let s = Mna.node_slot mna node in
        if s >= 0 then x.(s) <- v)
      pairs;
    x

let recorded_nodes mna options =
  match options.record with
  | Some nodes -> Array.of_list nodes
  | None -> Mna.node_names mna

let simulate ?(options = default_options) ~tstop ~dt netlist =
  if tstop <= 0.0 || dt <= 0.0 then
    invalid_arg "Tran.simulate: tstop and dt must be > 0";
  let mna = Mna.build netlist in
  let plan = P.build mna in
  let x0 = initial_unknowns mna plan options in
  let recorded = recorded_nodes mna options in
  (* resolve recorded slots once, outside the time loop *)
  let rec_slots = Array.map (fun n -> Mna.node_slot mna n) recorded in
  let n_steps = int_of_float (Float.round (tstop /. dt)) in
  let times = Array.init (n_steps + 1) (fun k -> float_of_int k *. dt) in
  let data = Array.map (fun _ -> Array.make (n_steps + 1) 0.0) recorded in
  let record k x =
    Array.iteri (fun r s -> data.(r).(k) <- P.volt x s) rec_slots
  in
  let state = init_state plan x0 in
  let asm = Assembler.create (P.dim plan) in
  let rhs = Array.make (P.dim plan) 0.0 in
  record 0 x0;
  let x = ref x0 in
  let scope = ref 0 in
  let sp state ~h ~t x =
    incr scope;
    (* per-step cancellation tick: a deadline-armed transient stops at
       the next solve boundary *)
    N.Cancel.tick ();
    solve_point ~fault_scope:!scope plan asm rhs options state ~h ~t x
  in
  (* Advance one output interval [times.(k-1), times.(k)].  The plain
     path is one full-[dt] solve; on [Step_failed] the whole interval
     is re-integrated from the accepted state with 2^r substeps of
     [dt / 2^r], doubling [r] up to [max_step_retries].  [Error]
     carries the smallest step tried and the retry count. *)
  let advance k =
    let t_prev = times.(k - 1) in
    match
      let x_next = sp state ~h:dt ~t:times.(k) !x in
      (* fixed step + linear circuit: after the first point the matrix
         can never change again, so pin the factorization — every
         remaining step is two triangular solves *)
      if P.linear plan && options.linear_fast_path
         && not (Assembler.frozen asm)
      then Assembler.freeze asm;
      update_state plan options state ~h:dt x_next;
      x_next
    with
    | x_next -> Ok x_next
    | exception Step_failed _ ->
      (* substepping changes the matrix values, so the pinned
         factorization (if any) must be released first *)
      Assembler.unfreeze asm;
      let rec retry r =
        if r > options.max_step_retries then
          Error (dt /. float_of_int (1 lsl options.max_step_retries),
                 options.max_step_retries)
        else begin
          let sub = 1 lsl r in
          let h = dt /. float_of_int sub in
          Log.debug (fun m ->
              m "step at t = %g s failed; retrying with %d substeps of %g s"
                times.(k) sub h);
          let st = clone_state state in
          match
            let xr = ref !x in
            for s = 1 to sub do
              let t_s = t_prev +. (float_of_int s *. h) in
              let xn = sp st ~h ~t:t_s !xr in
              update_state plan options st ~h xn;
              xr := xn
            done;
            !xr
          with
          | x_next ->
            copy_state ~src:st ~dst:state;
            Ok x_next
          | exception Step_failed _ -> retry (r + 1)
        end
      in
      retry 1
  in
  let rec march k =
    if k > n_steps then { times; names = recorded; data; truncated = None }
    else
      match advance k with
      | Ok x_next ->
        record k x_next;
        x := x_next;
        march (k + 1)
      | Error (dt_final, retries) ->
        let diag =
          Diag.Step_truncated
            { loc = Diag.loc "tran" ~time:times.(k); dt_final; retries;
              completed_points = k }
        in
        Log.warn (fun m -> m "%a" Diag.pp diag);
        { times = Array.sub times 0 k;
          names = recorded;
          data = Array.map (fun w -> Array.sub w 0 k) data;
          truncated = Some diag }
  in
  march 1

let node d name =
  let rec find k =
    if k >= Array.length d.names then raise Not_found
    else if String.equal d.names.(k) name then d.data.(k)
    else find (k + 1)
  in
  find 0
