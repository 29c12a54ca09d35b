(* Content-addressed macromodel cache.

   A reduced tile model is a pure function of the branch list it was
   reduced from (grid slice geometry and technology numbers are folded
   into the branch conductances), the retained-node labels and the CG
   tolerance — so the cache key is a digest over exactly that
   serialized content, and a hit can skip the tile reduction entirely.
   Entries persist as versioned Marshal payloads behind a magic
   header; anything unreadable (truncated file, stale version, label
   mismatch) is treated as a miss and recomputed.  Each handle also
   keeps an in-memory index from extraction-input digests to the
   content keys they produced, so a warm extraction need not rebuild
   the grid to find its tiles. *)

let log_src = Logs.Src.create "sn.subcache" ~doc:"substrate macromodel cache"

module Log = (val Logs.src_log log_src : Logs.LOG)

module N = Sn_numerics

(* 3: a signed passivity certificate rides alongside each entry, so a
   warm artifact can be re-verified (psd + untampered) by hashing
   alone — no re-extraction, no refactorization.  The version field
   is first in [payload] and checked before any other field is
   touched, so older entries are clean misses. *)
let format_version = 3

type tile_model = {
  labels : string array;
  matrix : float array;
  iterations : int;
  form : string;
}

type recorded_tile = { content_key : string; tile_labels : string array; dim : int }

type recorded = {
  tile_entries : recorded_tile array;
  conductance : float array;
  grid_cells : int;
  interface_nodes : int;
}

(* the input-key index: in memory only, one per handle, bounded; the
   least recently used entry is evicted first *)
type t = { dir : string; lock : Mutex.t; index : recorded N.Lru.t }

let index_capacity = 64

(* payload written to disk; [version] is checked on read so a format
   bump invalidates old entries instead of misreading them *)
type payload = {
  version : int;
  model : tile_model;
  cert : N.Passivity.cert option;
      (** [None] only when the matrix failed certification at store
          time — recorded rather than refused, so the verify pass can
          point at it *)
}

let magic = "snoise-tile-cache\n"

let dir t = t.dir

let create ~dir =
  (* best-effort mkdir -p over the last two path components; an
     unreachable directory degrades to a cache that never hits *)
  let rec ensure d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      ensure (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ()
    end
  in
  ensure dir;
  { dir; lock = Mutex.create (); index = N.Lru.create ~capacity:index_capacity }

let hex_key material = Digest.to_hex (Digest.string material)

let path t ~key = Filename.concat t.dir (key ^ ".tile")

let model_mat model =
  let dim = Array.length model.labels in
  N.Mat.of_flat ~rows:dim ~cols:dim model.matrix

let read_payload file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let m = really_input_string ic (String.length magic) in
      if not (String.equal m magic) then None
      else
        let (p : payload) = Marshal.from_channel ic in
        if p.version = format_version then Some p else None)

(* ------------------------------------------------------------------ *)
(* judging an entry from its bytes alone — signature hashing for
   certified entries, a fresh LDL^T for uncertified ones — with no
   extraction and no CG work, which is the point of storing
   certificates.  [lookup] serves exactly the entries [verify_entry]
   passes. *)

type entry_status =
  | Certified  (** signature verifies against the entry's own bytes *)
  | Recertified
      (** no stored certificate, but the matrix passes a fresh PSD
          check now *)
  | Stale  (** older format version: a clean miss for the extractor *)
  | Bad of string  (** corrupt, tampered, or genuinely non-passive *)

let judge ~key p =
  match model_mat p.model with
  | exception Invalid_argument _ -> Bad "matrix size does not match its labels"
  | mat -> (
    match p.cert with
    | Some cert ->
      if N.Passivity.verify ~context:key mat cert then Certified
      else Bad "certificate signature does not match entry bytes"
    | None ->
      let v = N.Passivity.psd mat in
      if N.Passivity.passes v then Recertified
      else
        Bad
          (Printf.sprintf
             "matrix is not passive (LDL^T pivot %.3g at index %d)"
             v.N.Passivity.defect v.N.Passivity.index))

(* the judgement, and the model when it may be served *)
let read_judged t ~key =
  match read_payload (path t ~key) with
  | Some p -> (
    match judge ~key p with
    | (Certified | Recertified) as s -> (s, Some p.model)
    | s -> (s, None))
  | None -> (Stale, None)
  | exception _ -> (Bad "unreadable entry (truncated or corrupt)", None)

let verify_entry t ~key = fst (read_judged t ~key)

(* process-wide counters, reported by [snoise runtime] and the
   server's stats / verify verbs *)
let n_lookups = Atomic.make 0
let n_hits = Atomic.make 0
let n_rejected = Atomic.make 0
let n_stores = Atomic.make 0

type counters = { lookups : int; hits : int; rejected : int; stores : int }

let counters () =
  {
    lookups = Atomic.get n_lookups;
    hits = Atomic.get n_hits;
    rejected = Atomic.get n_rejected;
    stores = Atomic.get n_stores;
  }

let lookup t ~key =
  Atomic.incr n_lookups;
  let file = path t ~key in
  if not (Sys.file_exists file) then None
  else
    (* a corrupted matrix, a certificate pasted from another artifact
       or a non-passive entry is a miss, not a wrong answer *)
    match read_judged t ~key with
    | _, Some model ->
      Atomic.incr n_hits;
      Some model
    | Bad why, None ->
      Atomic.incr n_rejected;
      Log.warn (fun m -> m "cache entry %s refused (%s): recomputing" file why);
      None
    | _, None -> None

let store t ~key model =
  (* write-to-temp + rename so concurrent readers never observe a
     partial entry; failures only cost the caching, never the result *)
  try
    let file = path t ~key in
    let cert = N.Passivity.certify ~context:key (model_mat model) in
    if cert = None then
      Log.warn (fun m ->
          m "tile model %s is not passive: stored without certificate" key);
    let tmp =
      Filename.temp_file ~temp_dir:t.dir "tile-"
        ("." ^ string_of_int (Unix.getpid ()))
    in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        Marshal.to_channel oc { version = format_version; model; cert } []);
    Sys.rename tmp file;
    Atomic.incr n_stores
  with _ -> Log.warn (fun m -> m "cache store failed under %s" t.dir)

(* ------------------------------------------------------------------ *)
(* the input-key index *)

let copy_recorded r =
  {
    r with
    tile_entries =
      Array.map
        (fun e -> { e with tile_labels = Array.copy e.tile_labels })
        r.tile_entries;
    conductance = Array.copy r.conductance;
  }

let recall t ~input_key =
  Mutex.protect t.lock (fun () -> N.Lru.find t.index input_key)
  |> Option.map copy_recorded

let remember t ~input_key r =
  let r = copy_recorded r in
  Mutex.protect t.lock (fun () -> N.Lru.add t.index input_key r)

(* ------------------------------------------------------------------ *)
(* verification of a whole cache directory *)

type verification = {
  vf_entries : (string * entry_status) list;  (** key, judgement *)
  vf_certified : int;
  vf_recertified : int;
  vf_stale : int;
  vf_bad : int;
}

let status_name = function
  | Certified -> "certified"
  | Recertified -> "recertified"
  | Stale -> "stale"
  | Bad _ -> "bad"

let verify_dir t =
  let keys =
    (try Sys.readdir t.dir with Sys_error _ -> [||])
    |> Array.to_list
    |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".tile" f)
    |> List.sort String.compare
  in
  let entries = List.map (fun key -> (key, verify_entry t ~key)) keys in
  let count p = List.length (List.filter (fun (_, s) -> p s) entries) in
  {
    vf_entries = entries;
    vf_certified = count (fun s -> s = Certified);
    vf_recertified = count (fun s -> s = Recertified);
    vf_stale = count (fun s -> s = Stale);
    vf_bad = count (function Bad _ -> true | _ -> false);
  }

(* process-wide default, the CLI / SNOISE_CACHE_DIR knob.
   Unset reads the environment on first use; Disabled (--no-cache)
   wins over the environment.  Each resolved state remembers where it
   came from so `snoise runtime` and the server's stats request can
   report why a run was warm or cold. *)

type origin = Flag | Env | No_cache_flag | Unset_default

type resolution = { origin : origin; dir : string option }

let origin_name = function
  | Flag -> "--cache-dir"
  | Env -> "SNOISE_CACHE_DIR"
  | No_cache_flag -> "--no-cache"
  | Unset_default -> "unset"

type selection = Unset | Disabled of origin | Selected of t * origin

let selection = Atomic.make Unset

let set_default_dir = function
  | None -> Atomic.set selection (Disabled No_cache_flag)
  | Some d -> Atomic.set selection (Selected (create ~dir:d, Flag))

let default () =
  match Atomic.get selection with
  | Selected (c, _) -> Some c
  | Disabled _ -> None
  | Unset -> (
    match Sys.getenv_opt "SNOISE_CACHE_DIR" with
    | Some d when String.trim d <> "" ->
      let c = create ~dir:d in
      Atomic.set selection (Selected (c, Env));
      Some c
    | _ ->
      Atomic.set selection (Disabled Unset_default);
      None)

let resolution () =
  (* force the lazy environment read so the answer matches what
     Extractor.extract would actually consult *)
  ignore (default ());
  match Atomic.get selection with
  | Selected (c, origin) -> { origin; dir = Some c.dir }
  | Disabled origin -> { origin; dir = None }
  | Unset -> { origin = Unset_default; dir = None }

let pp_resolution fmt r =
  match r.dir with
  | Some d -> Format.fprintf fmt "%s (from %s)" d (origin_name r.origin)
  | None ->
    if r.origin = No_cache_flag then
      Format.fprintf fmt "disabled (%s)" (origin_name r.origin)
    else
      Format.fprintf fmt
        "disabled (no --cache-dir and no SNOISE_CACHE_DIR set)"
