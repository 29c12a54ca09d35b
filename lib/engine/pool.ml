(* Fixed-size domain pool.

   Workers are spawned once and parked on a condition variable between
   batches; a batch is published by bumping [generation] under the
   lock.  Tasks are claimed with an atomic fetch-and-add over the
   index range — at sweep grain (a task is a whole model build or
   spur evaluation) a shared counter balances better than static
   chunking and costs one CAS per task, so no deque or stealing is
   needed.  The calling domain participates as worker 0, which keeps a
   width-1 pool literally sequential: no domains, no locks taken in
   [run]'s fast path beyond the stats bookkeeping. *)

let max_jobs = 64

let clamp_jobs n = if n < 1 then 1 else if n > max_jobs then max_jobs else n

let recommended_jobs () = clamp_jobs (Domain.recommended_domain_count ())

(* SNOISE_JOBS: garbage, zero and negative values fall back to the
   recommended width; values above [max_jobs] clamp down to it *)
let env_jobs () =
  let env = Option.value ~default:"" (Sys.getenv_opt "SNOISE_JOBS") in
  match int_of_string_opt (String.trim env) with
  | Some n when n >= 1 -> clamp_jobs n
  | Some _ | None -> recommended_jobs ()

type stats = {
  jobs : int;
  tasks_run : int;
  batches : int;
  busy_seconds : float array;
  wall_seconds : float;
}

type t = {
  n_workers : int;
  lock : Mutex.t;
  work_cond : Condition.t;  (* workers: a new batch (or stop) is up *)
  done_cond : Condition.t;  (* caller: all workers left the batch *)
  mutable batch : int -> unit;
  mutable batch_n : int;
  next : int Atomic.t;  (* next unclaimed task index *)
  mutable generation : int;  (* bumped per batch, under [lock] *)
  mutable active : int;  (* spawned workers still inside the batch *)
  mutable stop : bool;
  mutable error : exn option;  (* first task exception of the batch *)
  mutable running : bool;  (* a batch is in flight (nested-run guard) *)
  mutable domains : unit Domain.t array;
  (* observability *)
  mutable tasks_run : int;
  mutable batches : int;
  busy : float array;
  mutable wall : float;
}

let jobs t = t.n_workers

(* Claim and execute tasks until the batch is exhausted; returns the
   number of tasks this worker ran.  Called with [lock] NOT held. *)
let drain t w =
  let t0 = Unix.gettimeofday () in
  let ran = ref 0 in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add t.next 1 in
    if i >= t.batch_n then continue := false
    else begin
      (* benign racy read: after a task has failed the batch's results
         are discarded anyway, so remaining tasks are skipped *)
      (if t.error == None then
         (* cancellation is checked at task-claim time so a cancelled
            batch stops claiming work within one task boundary and the
            pool slot frees for the next request *)
         try Sn_numerics.Cancel.poll (); t.batch i
         with e ->
           Mutex.lock t.lock;
           if t.error = None then t.error <- Some e;
           Mutex.unlock t.lock);
      incr ran
    end
  done;
  t.busy.(w) <- t.busy.(w) +. (Unix.gettimeofday () -. t0);
  !ran

let rec worker_loop t w my_gen =
  Mutex.lock t.lock;
  while (not t.stop) && t.generation = my_gen do
    Condition.wait t.work_cond t.lock
  done;
  if t.stop then Mutex.unlock t.lock
  else begin
    let gen = t.generation in
    Mutex.unlock t.lock;
    let ran = drain t w in
    Mutex.lock t.lock;
    t.tasks_run <- t.tasks_run + ran;
    t.active <- t.active - 1;
    if t.active = 0 then Condition.broadcast t.done_cond;
    Mutex.unlock t.lock;
    worker_loop t w gen
  end

let create ?jobs () =
  let n_workers =
    match jobs with None -> env_jobs () | Some j -> clamp_jobs j
  in
  let t =
    {
      n_workers;
      lock = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      batch = ignore;
      batch_n = 0;
      next = Atomic.make 0;
      generation = 0;
      active = 0;
      stop = false;
      error = None;
      running = false;
      domains = [||];
      tasks_run = 0;
      batches = 0;
      busy = Array.make n_workers 0.0;
      wall = 0.0;
    }
  in
  t.domains <-
    Array.init (n_workers - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1) 0));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work_cond;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

let sequential_run t ~n f =
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    Sn_numerics.Cancel.poll ();
    f i
  done;
  let dt = Unix.gettimeofday () -. t0 in
  t.busy.(0) <- t.busy.(0) +. dt;
  t.tasks_run <- t.tasks_run + n;
  t.batches <- t.batches + 1;
  t.wall <- t.wall +. dt

let run t ~n f =
  if n > 0 then begin
    let inline =
      Array.length t.domains = 0
      ||
      (Mutex.lock t.lock;
       let r = t.running in
       Mutex.unlock t.lock;
       r)
    in
    if inline then sequential_run t ~n f
    else begin
      let t0 = Unix.gettimeofday () in
      Mutex.lock t.lock;
      t.running <- true;
      t.batch <- f;
      t.batch_n <- n;
      t.error <- None;
      Atomic.set t.next 0;
      t.active <- Array.length t.domains;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work_cond;
      Mutex.unlock t.lock;
      let ran = drain t 0 in
      Mutex.lock t.lock;
      while t.active > 0 do
        Condition.wait t.done_cond t.lock
      done;
      t.tasks_run <- t.tasks_run + ran;
      t.batches <- t.batches + 1;
      t.batch <- ignore;
      t.running <- false;
      let err = t.error in
      t.error <- None;
      Mutex.unlock t.lock;
      t.wall <- t.wall +. (Unix.gettimeofday () -. t0);
      match err with Some e -> raise e | None -> ()
    end
  end

let map_array t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run t ~n (fun i -> results.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t f xs = Array.to_list (map_array t f (Array.of_list xs))

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      jobs = t.n_workers;
      tasks_run = t.tasks_run;
      batches = t.batches;
      busy_seconds = Array.copy t.busy;
      wall_seconds = t.wall;
    }
  in
  Mutex.unlock t.lock;
  s

let reset_stats t =
  Mutex.lock t.lock;
  t.tasks_run <- 0;
  t.batches <- 0;
  Array.fill t.busy 0 (Array.length t.busy) 0.0;
  t.wall <- 0.0;
  Mutex.unlock t.lock

let cpu_seconds s = Array.fold_left ( +. ) 0.0 s.busy_seconds

let imbalance s =
  let cpu = cpu_seconds s in
  if cpu <= 0.0 then 0.0
  else
    let mean = cpu /. float_of_int (Array.length s.busy_seconds) in
    let mx = Array.fold_left Float.max 0.0 s.busy_seconds in
    mx /. mean

let pp_stats fmt s =
  Format.fprintf fmt "@[<v>pool: %d worker%s, %d task%s in %d batch%s@,"
    s.jobs
    (if s.jobs = 1 then "" else "s")
    s.tasks_run
    (if s.tasks_run = 1 then "" else "s")
    s.batches
    (if s.batches = 1 then "" else "es");
  Format.fprintf fmt
    "wall %.3f s, cpu %.3f s (parallelism %.2fx, imbalance %.2f)@,"
    s.wall_seconds (cpu_seconds s)
    (if s.wall_seconds > 0.0 then cpu_seconds s /. s.wall_seconds else 0.0)
    (imbalance s);
  Array.iteri
    (fun w b -> Format.fprintf fmt "  worker %d busy %.3f s@," w b)
    s.busy_seconds;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* default pool *)

let default_pool = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create ~jobs:(env_jobs ()) () in
    default_pool := Some p;
    at_exit (fun () -> shutdown p);
    p
