(* Structured solver diagnostics.

   Every engine failure mode is one constructor of [t], carrying
   enough context to act on: the analysis it happened in, the time or
   frequency point, the iteration count, and — crucially — names
   rather than indices.  A singular pivot is mapped back through
   [Mna.slot_name] to the node or element whose equation broke; a
   diverged Newton reports the unknown with the worst residual; the
   DC rescue ladder records which rung finally converged.  [pp] is the
   human rendering, [to_json] the stable machine one (reports, sweep
   failure sections, CI logs). *)

type location = { analysis : string; time : float option; freq : float option }

let loc ?time ?freq analysis = { analysis; time; freq }

type unknown = Node of string | Branch of string

type rung =
  | Plain_newton
  | Damped_newton
  | Gmin_stepping
  | Source_stepping
  | Pseudo_transient

let rung_name = function
  | Plain_newton -> "plain-newton"
  | Damped_newton -> "damped-newton"
  | Gmin_stepping -> "gmin-stepping"
  | Source_stepping -> "source-stepping"
  | Pseudo_transient -> "pseudo-transient"

type attempt = { rung : rung; iterations : int; converged : bool }

type t =
  | No_convergence of {
      loc : location;
      iterations : int;
      residual : float;
      worst : unknown option;
      attempts : attempt list;
    }
  | Singular_pivot of { loc : location; pivot : int; unknown : unknown option }
  | Step_truncated of {
      loc : location;
      dt_final : float;
      retries : int;
      completed_points : int;
    }
  | Bad_input of { loc : location; what : string }

exception Error of t

let unknown_of_slot mna slot =
  if slot < 0 then None
  else
    match Mna.slot_name mna slot with
    | None -> None
    | Some name ->
      Some (if slot < Mna.n_nodes mna then Node name else Branch name)

let pp_unknown fmt = function
  | Node n -> Format.fprintf fmt "node %s" n
  | Branch b -> Format.fprintf fmt "branch of element %s" b

let pp_location fmt l =
  Format.fprintf fmt "%s" l.analysis;
  Option.iter (fun t -> Format.fprintf fmt " at t = %g s" t) l.time;
  Option.iter (fun f -> Format.fprintf fmt " at f = %g Hz" f) l.freq

let pp_attempt fmt a =
  Format.fprintf fmt "%s: %s after %d iteration%s" (rung_name a.rung)
    (if a.converged then "converged" else "failed")
    a.iterations
    (if a.iterations = 1 then "" else "s")

let pp fmt = function
  | No_convergence { loc; iterations; residual; worst; attempts } ->
    Format.fprintf fmt "@[<v>%a: no convergence after %d iterations"
      pp_location loc iterations;
    if Float.is_finite residual then
      Format.fprintf fmt " (residual %.3g)" residual;
    Option.iter (fun u -> Format.fprintf fmt ", worst %a" pp_unknown u) worst;
    if attempts <> [] then begin
      Format.fprintf fmt "@,rescue ladder:";
      List.iter (fun a -> Format.fprintf fmt "@,  %a" pp_attempt a) attempts
    end;
    Format.fprintf fmt "@]"
  | Singular_pivot { loc; pivot; unknown } ->
    Format.fprintf fmt "%a: singular pivot" pp_location loc;
    if pivot >= 0 then Format.fprintf fmt " at column %d" pivot;
    (match unknown with
     | Some u -> Format.fprintf fmt " (%a)" pp_unknown u
     | None -> if pivot < 0 then Format.fprintf fmt " (injected fault)")
  | Step_truncated { loc; dt_final; retries; completed_points } ->
    Format.fprintf fmt
      "%a: step failed after %d retr%s down to dt = %g s; waveform \
       truncated to %d accepted point%s"
      pp_location loc retries
      (if retries = 1 then "y" else "ies")
      dt_final completed_points
      (if completed_points = 1 then "" else "s")
  | Bad_input { loc; what } ->
    Format.fprintf fmt "%a: bad input: %s" pp_location loc what

let to_string d = Format.asprintf "%a" pp d

let () =
  Printexc.register_printer (function
    | Error d -> Some (Printf.sprintf "Sn_engine.Diag.Error(%s)" (to_string d))
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* JSON rendering: stable key order *)

module J = Sn_json.Json

let or_null f = function None -> J.Null | Some v -> f v

let num v = J.Num v

let count i = J.Num (float_of_int i)

let unknown_json = function
  | Node n -> J.Obj [ ("node", J.Str n) ]
  | Branch b -> J.Obj [ ("branch", J.Str b) ]

let location_json l =
  J.Obj
    [
      ("analysis", J.Str l.analysis);
      ("time", or_null num l.time);
      ("freq", or_null num l.freq);
    ]

let attempt_json a =
  J.Obj
    [
      ("rung", J.Str (rung_name a.rung));
      ("iterations", count a.iterations);
      ("converged", J.Bool a.converged);
    ]

let to_json = function
  | No_convergence { loc; iterations; residual; worst; attempts } ->
    J.Obj
      [
        ("kind", J.Str "no-convergence");
        ("location", location_json loc);
        ("iterations", count iterations);
        ("residual", J.Num residual);
        ("worst", or_null unknown_json worst);
        ("attempts", J.Arr (List.map attempt_json attempts));
      ]
  | Singular_pivot { loc; pivot; unknown } ->
    J.Obj
      [
        ("kind", J.Str "singular-pivot");
        ("location", location_json loc);
        ("pivot", count pivot);
        ("unknown", or_null unknown_json unknown);
      ]
  | Step_truncated { loc; dt_final; retries; completed_points } ->
    J.Obj
      [
        ("kind", J.Str "step-truncated");
        ("location", location_json loc);
        ("dt_final", J.Num dt_final);
        ("retries", count retries);
        ("completed_points", count completed_points);
      ]
  | Bad_input { loc; what } ->
    J.Obj
      [
        ("kind", J.Str "bad-input");
        ("location", location_json loc);
        ("what", J.Str what);
      ]
