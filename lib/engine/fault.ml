(* Deterministic fault injection for the solver robustness layer.

   The rescue ladder, the transient backoff and the fault-tolerant
   sweep paths only run when something goes wrong, so without help they
   would be dead code in every healthy test run.  This module lets a
   test (or the SNOISE_FAULT environment variable) declare "the Nth
   factorization fails" or "the first DC Newton attempt of every solve
   fails"; the engines poll {!fire} at each occurrence and simulate the
   failure on a hit.  Counters are atomic so an armed fault behaves
   deterministically even when the occurrences race across pool
   domains (exactly one domain wins the Nth slot). *)

type site =
  | Factor
  | Dc_attempt
  | Tran_solve
  (* server-side chaos points (PR 8): the wire layer polls these to
     kill the worker mid-request, delay/garble a reply, or drop a
     client connection *)
  | Server_kill
  | Server_delay
  | Server_garble
  | Server_drop

type spec =
  | Nth of int
  | First_in_scope

type armed = { site : site; spec : spec }

let state : armed option ref = ref None

(* one global occurrence counter per site *)
let factor_count = Atomic.make 0
let dc_count = Atomic.make 0
let tran_count = Atomic.make 0
let kill_count = Atomic.make 0
let delay_count = Atomic.make 0
let garble_count = Atomic.make 0
let drop_count = Atomic.make 0

let counter = function
  | Factor -> factor_count
  | Dc_attempt -> dc_count
  | Tran_solve -> tran_count
  | Server_kill -> kill_count
  | Server_delay -> delay_count
  | Server_garble -> garble_count
  | Server_drop -> drop_count

let site_of_name = function
  | "factor" -> Some Factor
  | "dc-attempt" -> Some Dc_attempt
  | "tran-solve" -> Some Tran_solve
  | "server-kill" -> Some Server_kill
  | "server-delay" -> Some Server_delay
  | "server-garble" -> Some Server_garble
  | "server-drop" -> Some Server_drop
  | _ -> None

let reset_counters () =
  Atomic.set factor_count 0;
  Atomic.set dc_count 0;
  Atomic.set tran_count 0;
  Atomic.set kill_count 0;
  Atomic.set delay_count 0;
  Atomic.set garble_count 0;
  Atomic.set drop_count 0

let arm site spec =
  reset_counters ();
  state := Some { site; spec }

let disarm () =
  reset_counters ();
  state := None

let parse s =
  match String.index_opt s ':' with
  | None -> None
  | Some i ->
    let name = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    (match site_of_name (String.lowercase_ascii (String.trim name)) with
     | None -> None
     | Some site ->
       (match String.lowercase_ascii (String.trim arg) with
        | "first" -> Some { site; spec = First_in_scope }
        | n ->
          (match int_of_string_opt n with
           | Some n when n >= 1 -> Some { site; spec = Nth n }
           | _ -> None)))

(* the environment is consulted exactly once, before the first fire *)
let env_loaded = ref false

let load_env () =
  if not !env_loaded then begin
    env_loaded := true;
    match Sys.getenv_opt "SNOISE_FAULT" with
    | None -> ()
    | Some "" -> () (* a supervisor scrubs the variable on restart *)
    | Some s ->
      (match parse s with
       | Some a -> if !state = None then state := Some a
       | None ->
         Printf.eprintf "snoise: ignoring malformed SNOISE_FAULT=%S\n%!" s)
  end

let fire ?(scope_index = 0) site =
  load_env ();
  match !state with
  | None -> false
  | Some a when a.site <> site -> false
  | Some a ->
    (match a.spec with
     | First_in_scope -> scope_index = 1
     | Nth n -> Atomic.fetch_and_add (counter site) 1 + 1 = n)
