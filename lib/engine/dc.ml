module C = Sn_circuit
module N = Sn_numerics

let log_src = Logs.Src.create "sn.engine.dc" ~doc:"DC analysis"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = {
  max_iterations : int;
  tolerance : float;
  damping : float;
  ladder : Diag.rung list;
}

let default_options =
  { max_iterations = 200; tolerance = 1e-9; damping = 0.6;
    ladder =
      [ Diag.Plain_newton; Diag.Damped_newton; Diag.Gmin_stepping;
        Diag.Source_stepping; Diag.Pseudo_transient ] }

let gmin = 1e-12

(* rescue-ladder step counts: gmin continuation steps, source-stepping
   ramp sub-steps and pseudo-transient anchor-conductance decades *)
let gmin_steps = 6
let source_steps = 20
let ptran_steps = 8

type solution = { mna : Mna.t; x : float array; attempts : Diag.attempt list }

(* Why one rung attempt gave up: carried through the ladder so the
   final diagnostic can report the *last* (deepest) failure with real
   context — the worst-residual unknown, or the singular pivot. *)
type failure =
  | Diverged of { iterations : int; residual : float; worst : int }
  | Singular of { iterations : int; pivot : int }

exception Attempt_failed of failure

(* Assemble the real Newton system at candidate [x] into the shared
   assembler and right-hand side through the plan's stamp rule: every
   node and branch index was resolved when the plan was built, so the
   Newton inner loop does no name lookups at all.  [source wave ac_mag]
   is an independent source's value; [reactive] stamps the dynamic
   elements, which DC leaves open (the inductor is a short through its
   incidences).  The transient engine supplies its companion models
   here.

   Source stepping scales [source], which only touches the right-hand
   side, so the stamp event sequence stays identical across the whole
   ladder and the assembler's recorded pattern remains valid. *)
let assemble_plan ?(reactive = fun _ _ -> ()) ~source plan asm rhs ~gmin x =
  Assembler.start asm;
  Array.fill rhs 0 (Array.length rhs) 0.0;
  Stamp_plan.assemble
    { Stamp_plan.add = (fun i j v -> Assembler.add asm i j v);
      inject = (fun i v -> if i >= 0 then rhs.(i) <- rhs.(i) +. v) }
    ~lin:(Stamp_plan.Newton x) ~source ~reactive ~gmin plan

(* One Newton run.  [anchor = (g, x_prev)] turns the iteration into a
   backward-Euler pseudo-transient step: conductance [g] from every
   node to its previous voltage, i.e. [g] is folded into the gmin
   diagonal add (keeping the stamp sequence unchanged) and [g * x_prev]
   is injected into the node rows of the right-hand side.

   Returns [(x, iterations)]; raises [Attempt_failed] with the last
   iteration's worst slot and residual on budget exhaustion, or the
   singular column on a factorization failure. *)
let newton_loop ~source_scale ~anchor plan asm rhs ~budget ~clamp ~tolerance
    ~gmin x0 =
  let dim = Stamp_plan.dim plan in
  let n_nodes = Stamp_plan.n_nodes plan in
  let x = Array.copy x0 in
  let gmin_eff, inject_anchor =
    match anchor with
    | None -> (gmin, fun () -> ())
    | Some (g, x_prev) ->
      ( gmin +. g,
        fun () ->
          for i = 0 to n_nodes - 1 do
            rhs.(i) <- rhs.(i) +. (g *. x_prev.(i))
          done )
  in
  let last_residual = ref Float.infinity in
  let last_worst = ref (-1) in
  let rec iterate k =
    if k >= budget then
      raise
        (Attempt_failed
           (Diverged
              { iterations = k; residual = !last_residual;
                worst = !last_worst }))
    else begin
      N.Cancel.poll ();
      assemble_plan plan asm rhs ~gmin:gmin_eff x
        ~source:(fun wave _ -> source_scale *. C.Waveform.dc_value wave);
      inject_anchor ();
      let x_new =
        try Assembler.solve asm rhs
        with N.Splu.Singular col ->
          raise (Attempt_failed (Singular { iterations = k; pivot = col }))
      in
      let max_delta = ref 0.0 in
      let worst = ref (-1) in
      for i = 0 to dim - 1 do
        let delta = x_new.(i) -. x.(i) in
        let clamped =
          if i < n_nodes then Float.max (-.clamp) (Float.min clamp delta)
          else delta
        in
        let mag = Float.abs delta in
        if mag > !max_delta then begin
          max_delta := mag;
          worst := i
        end;
        x.(i) <- x.(i) +. clamped
      done;
      last_residual := !max_delta;
      last_worst := !worst;
      if !max_delta < tolerance then (x, k + 1) else iterate (k + 1)
    end
  in
  iterate 0

(* ------------------------------------------------------------------ *)
(* The rescue ladder.  Each rung is a list of continuation steps run as
   warm-started Newton solves from the cold start [x0]; it returns
   [(x, total_newton_iterations)] or raises [Attempt_failed] carrying
   the iterations of every step so far.  All rungs share one assembler,
   so the factorization pattern is discovered once and reused across
   the whole ladder. *)

type step = {
  gmin : float;
  source_scale : float;
  anchor : float option;
      (** pseudo-transient conductance to the previous step's voltages *)
}

let add_iterations n = function
  | Diverged d -> Diverged { d with iterations = n + d.iterations }
  | Singular s -> Singular { s with iterations = n + s.iterations }

let continuation plan asm rhs ~budget ~clamp ~tolerance x0 steps =
  List.fold_left
    (fun (x, iters) st ->
      let anchor = Option.map (fun g -> (g, x)) st.anchor in
      match
        newton_loop ~source_scale:st.source_scale ~anchor plan asm rhs ~budget
          ~clamp ~tolerance ~gmin:st.gmin x
      with
      | x, k -> (x, iters + k)
      | exception Attempt_failed f ->
        raise (Attempt_failed (add_iterations iters f)))
    (x0, 0) steps

let run_rung plan asm rhs (o : options) rung x0 =
  let step ?(gmin = gmin) ?(source_scale = 1.0) ?anchor () =
    { gmin; source_scale; anchor }
  in
  let budget, clamp, steps =
    match rung with
    | Diag.Plain_newton -> (o.max_iterations, o.damping, [ step () ])
    (* heavier clamp, larger budget: slower but monotone-ish progress on
       circuits where the full-strength update overshoots *)
    | Diag.Damped_newton ->
      (3 * o.max_iterations, o.damping /. 6.0, [ step () ])
    (* gmin continuation from 1 mS down to the working floor *)
    | Diag.Gmin_stepping ->
      let exponent k =
        -.float_of_int k *. 9.0 /. float_of_int (gmin_steps - 1)
      in
      ( o.max_iterations, o.damping,
        List.init gmin_steps (fun k ->
            step ~gmin:(1e-3 *. (10.0 ** exponent k)) ())
        @ [ step () ] )
    (* Ramp every independent source from 0 to 100 %.  At scale ~0 the
       all-zero start is already near the solution; each sub-step warm
       starts from the previous one, so even a tight damping clamp only
       has to cover the per-step voltage increment. *)
    | Diag.Source_stepping ->
      let n = source_steps in
      ( o.max_iterations, o.damping,
        List.init n (fun k ->
            step ~source_scale:(float_of_int (k + 1) /. float_of_int n) ()) )
    (* Pseudo-transient continuation: anchor every node to its previous
       voltage through a conductance [g], ramp [g] down by decades, then
       polish with one clean Newton.  Equivalent to backward-Euler time
       stepping toward the equilibrium with growing timestep. *)
    | Diag.Pseudo_transient ->
      ( o.max_iterations, o.damping,
        List.init ptran_steps (fun k ->
            step ~anchor:(10.0 ** -.float_of_int k) ())
        @ [ step () ] )
  in
  continuation plan asm rhs ~budget ~clamp ~tolerance:o.tolerance x0 steps

let solve_plan ?(options = default_options) plan =
  let dim = Stamp_plan.dim plan in
  let asm = Assembler.create dim in
  let rhs = Array.make dim 0.0 in
  let x0 = Array.make dim 0.0 in
  let mna = Stamp_plan.mna plan in
  let ladder =
    match options.ladder with [] -> [ Diag.Plain_newton ] | l -> l
  in
  let attempts = ref [] in
  let total_iters = ref 0 in
  let last_failure = ref None in
  let rec try_rungs attempt_no = function
    | [] ->
      let loc = Diag.loc "dc" in
      let diag =
        match !last_failure with
        | Some (Singular { pivot; _ }) ->
          Diag.Singular_pivot
            { loc; pivot; unknown = Diag.unknown_of_slot mna pivot }
        | Some (Diverged { residual; worst; _ }) ->
          Diag.No_convergence
            { loc; iterations = !total_iters; residual;
              worst = Diag.unknown_of_slot mna worst;
              attempts = List.rev !attempts }
        | None ->
          Diag.No_convergence
            { loc; iterations = 0; residual = Float.infinity; worst = None;
              attempts = List.rev !attempts }
      in
      Log.err (fun m -> m "%a" Diag.pp diag);
      raise (Diag.Error diag)
    | rung :: rest ->
      (* cancellation boundary: a deadline-armed solve gives up between
         rescue-ladder attempts *)
      N.Cancel.tick ();
      if Fault.fire ~scope_index:attempt_no Dc_attempt then begin
        Log.warn (fun m ->
            m "injected fault: failing %s attempt" (Diag.rung_name rung));
        attempts :=
          { Diag.rung; iterations = 0; converged = false } :: !attempts;
        try_rungs (attempt_no + 1) rest
      end
      else begin
        (if attempt_no > 1 then
           Log.info (fun m -> m "rescue: trying %s" (Diag.rung_name rung)));
        match run_rung plan asm rhs options rung x0 with
        | x, iters ->
          attempts :=
            { Diag.rung; iterations = iters; converged = true } :: !attempts;
          total_iters := !total_iters + iters;
          if attempt_no > 1 then
            Log.info (fun m ->
                m "rescue: %s converged after %d iterations"
                  (Diag.rung_name rung) iters);
          { mna; x; attempts = List.rev !attempts }
        | exception Attempt_failed f ->
          let iters =
            match f with
            | Diverged { iterations; _ } | Singular { iterations; _ } ->
              iterations
          in
          attempts :=
            { Diag.rung; iterations = iters; converged = false } :: !attempts;
          total_iters := !total_iters + iters;
          last_failure := Some f;
          Log.info (fun m ->
              m "%s failed after %d iterations" (Diag.rung_name rung) iters);
          try_rungs (attempt_no + 1) rest
      end
  in
  try_rungs 1 ladder

let solve_mna ?options mna = solve_plan ?options (Stamp_plan.build mna)
let solve ?options netlist = solve_mna ?options (Mna.build netlist)

let attempts s = s.attempts

let voltage s node =
  Stamp_plan.volt s.x (Mna.node_slot s.mna node)

let branch_current s name = s.x.(Mna.branch_slot s.mna name)

let mos_operating_point s name =
  match C.Netlist.find (Mna.netlist s.mna) name with
  | C.Element.Mosfet { drain; gate; source; bulk; model; w; l; mult; _ } ->
    let v n = voltage s n in
    let lin =
      Device_eval.mos ~model ~w ~l ~mult ~vd:(v drain) ~vg:(v gate)
        ~vs:(v source) ~vb:(v bulk)
    in
    lin.Device_eval.op
  | C.Element.Resistor _ | C.Element.Capacitor _ | C.Element.Inductor _
  | C.Element.Vsource _ | C.Element.Isource _ | C.Element.Vccs _
  | C.Element.Vcvs _ | C.Element.Varactor _ ->
    raise Not_found

let unknowns s = Array.copy s.x

let pp fmt s =
  let m = s.mna in
  Format.fprintf fmt "@[<v>operating point (%d nodes, %d branches)@,"
    (Mna.n_nodes m) (Mna.n_branches m);
  Array.iter
    (fun name ->
      Format.fprintf fmt "  v(%-20s) = %12.6g V@," name (voltage s name))
    (Mna.node_names m);
  List.iter
    (fun e ->
      match e with
      | C.Element.Vsource { name; _ } | C.Element.Vcvs { name; _ }
      | C.Element.Inductor { name; _ } ->
        Format.fprintf fmt "  i(%-20s) = %12.6g A@," name
          (branch_current s name)
      | C.Element.Mosfet { name; mult; _ } ->
        let op = mos_operating_point s name in
        let fm = float_of_int mult in
        Format.fprintf fmt
          "  %-8s %-11s id=%9.4g A gm=%9.4g S gds=%9.4g S gmb=%9.4g S@,"
          name
          (match op.C.Mos_model.region with
           | `Cutoff -> "cutoff"
           | `Triode -> "triode"
           | `Saturation -> "saturation")
          (fm *. op.C.Mos_model.id)
          (fm *. op.C.Mos_model.gm)
          (fm *. op.C.Mos_model.gds)
          (fm *. op.C.Mos_model.gmb)
      | C.Element.Resistor _ | C.Element.Capacitor _ | C.Element.Isource _
      | C.Element.Vccs _ | C.Element.Varactor _ ->
        ())
    (C.Netlist.elements (Mna.netlist m));
  Format.fprintf fmt "@]"
