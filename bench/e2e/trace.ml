(* Spans and per-iteration counters recorded by the benchmark around
   its calls into the library's public entry points.  Recording is off
   unless [enabled] is set, and then costs one closure call per span.
   Everything stays in memory until the run ends. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, or [-1] for a root *)
  key : string;  (** "<layer>" or "<layer>.<call>" *)
  iteration : int;
  start : float;
  stop : float;
}

let enabled = ref false
let iteration = ref 0
let next_id = ref 0
let open_spans : int list ref = ref []

(* spans of the iteration in progress, and of the finished ones *)
let pending : span list ref = ref []
let finished : span list ref = ref []

let now = Unix.gettimeofday

let span key f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        open_spans := List.tl !open_spans;
        pending :=
          { id; parent; key; iteration = !iteration; start; stop } :: !pending)
      f
  end

let duration s = s.stop -. s.start

(* Self time per key: each span's duration minus the durations of its
   direct children.  Children of one span never overlap, because the
   benchmark calls the library from a single thread. *)
let self_times spans =
  let children = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    spans;
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s
        -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0
      in
      Hashtbl.replace by_key s.key
        (self +. Option.value (Hashtbl.find_opt by_key s.key) ~default:0.0))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_key []
  |> List.sort compare

(* Per-iteration counters, recorded only while tracing. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let add key v =
  if !enabled then
    Hashtbl.replace counters key
      (v +. Option.value (Hashtbl.find_opt counters key) ~default:0.0)

let set key v = if !enabled then Hashtbl.replace counters key v

(* Close the current iteration: its spans move to [finished], and its
   spans and counters are returned. *)
let take_iteration () =
  let spans = List.rev !pending in
  let values = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [] in
  finished := List.rev_append spans !finished;
  pending := [];
  Hashtbl.reset counters;
  (spans, values)

let layer key =
  match String.index_opt key '.' with
  | Some i -> String.sub key 0 i
  | None -> key

(* Chrome trace-event JSON: opens in Perfetto or chrome://tracing. *)
let chrome_json spans =
  let module J = Sn_server.Json in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us t = Float.round ((t -. t0) *. 1e7) /. 10.0 in
  J.Obj
    [
      ( "traceEvents",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.Str s.key);
                   ("cat", J.Str (layer s.key));
                   ("ph", J.Str "X");
                   ("ts", J.Num (us s.start));
                   ("dur", J.Num (us s.stop -. us s.start));
                   ("pid", J.Num 1.0);
                   ("tid", J.Num 1.0);
                   ( "args",
                     J.Obj
                       [
                         ("iteration", J.Num (float_of_int s.iteration));
                         ("id", J.Num (float_of_int s.id));
                         ("parent", J.Num (float_of_int s.parent));
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", J.Str "ms");
    ]

let all_spans () = List.rev !finished
