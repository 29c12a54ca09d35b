(* Cooperative cancellation tokens.

   A token is an atomic flag plus an optional absolute wall-clock
   deadline.  Long-running loops call {!tick} (or {!poll}) at their
   iteration boundaries; when the ambient token has been cancelled or
   its deadline has passed, the poll raises {!Cancelled} carrying the
   token, and the caller that armed the token reports how far the work
   got from the token's progress counter.

   The ambient token is a process-global [Atomic.t] rather than a
   parameter threaded through every solver signature: the serving loop
   dispatches one request at a time, and pool workers on other domains
   read the same global, so a single slot is sufficient and keeps the
   disarmed fast path to one atomic load and a branch. *)

type t = {
  cancelled : bool Atomic.t;
  deadline : float; (* absolute Unix time; infinity = none *)
  progress : int Atomic.t;
  reason : string Atomic.t;
}

exception Cancelled of t

let create ?deadline () =
  let deadline = match deadline with Some d -> d | None -> Float.infinity in
  {
    cancelled = Atomic.make false;
    deadline;
    progress = Atomic.make 0;
    reason = Atomic.make "cancelled";
  }

let cancel ?(reason = "cancelled") t =
  Atomic.set t.reason reason;
  Atomic.set t.cancelled true

let cancelled t = Atomic.get t.cancelled

let progress t = Atomic.get t.progress

let reason t = Atomic.get t.reason

let expired t =
  t.deadline < Float.infinity && Unix.gettimeofday () > t.deadline

(* The ambient token consulted by {!poll}/{!tick}. *)
let current : t option Atomic.t = Atomic.make None

let check t =
  if Atomic.get t.cancelled then raise (Cancelled t)
  else if expired t then begin
    Atomic.set t.reason "deadline";
    Atomic.set t.cancelled true;
    raise (Cancelled t)
  end

let poll () =
  match Atomic.get current with None -> () | Some t -> check t

let tick () =
  match Atomic.get current with
  | None -> ()
  | Some t ->
      Atomic.incr t.progress;
      check t

let active () = Atomic.get current <> None

let with_token t f =
  let previous = Atomic.get current in
  Atomic.set current (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set current previous) f
