(** Content-addressed cache of reduced tile macromodels.

    A tile's reduced conductance matrix is a pure function of the
    serialized content {!Extractor} hashes into the key: the tile's
    branch list (grid slice geometry and technology numbers are folded
    into the branch conductances), the retained-node labels, and the
    CG tolerance.  Keying by content means incremental layout edits
    and corner sweeps re-reduce only the tiles whose inputs actually
    changed, while warm extractions skip the reduction entirely.

    Entries persist on disk (conventionally under [_snoise_cache/]) as
    versioned [Marshal] payloads behind a magic header.  Reads are
    fail-soft: a truncated, corrupted or version-stale entry is a miss
    that falls back to recomputation.

    In front of the content keys, each handle keeps an in-memory
    {e input-key index} ({!recall}, {!remember}): a digest of an
    extraction's inputs mapped to the content keys it produced and the
    stitched port matrix, so a warm {!Extractor.extract} skips building
    the grid.  The index is never persisted and never authoritative:
    a hit is served only after every recorded content key passes
    {!lookup} again. *)

type t
(** A handle on one cache directory, with its own input-key index
    (empty at {!create}). *)

(** A cached reduced tile. *)
type tile_model = {
  labels : string array;
      (** retained-node labels in matrix order — verified against the
          extraction on a hit, so a stale entry can never be scattered
          into the wrong slots *)
  matrix : float array;
      (** row-major reduced conductance matrix over the retained
          nodes *)
  iterations : int;  (** CG iterations spent producing the entry *)
  form : string;
      (** reduction configuration tag the entry was produced under
          (["exact"], or a {!Snoise.Reduced_model.config_digest}
          string when the flow runs with model-order reduction) —
          verified against the extraction on a hit, so reduced and
          exact artifacts can never collide even across format
          versions *)
}

val create : dir:string -> t
(** [create ~dir] binds a cache to [dir], creating it (best-effort,
    [mkdir -p] style) when missing.  An unwritable directory degrades
    to a cache that never hits — extraction results are never
    affected.  Every handle starts with an empty input-key index, even
    on a directory another handle has warmed. *)

val dir : t -> string
(** The cache directory. *)

val hex_key : string -> string
(** [hex_key material] digests serialized key material into the hex
    file-name key. *)

val lookup : t -> key:string -> tile_model option
(** [lookup t ~key] returns the cached model when {!verify_dir}
    would judge the entry {!Certified} or {!Recertified}, else [None]: a
    missing or {!Stale} entry is a plain miss, and a {!Bad} one
    (unreadable, tampered, or non-passive) is a miss counted in
    [rejected] — corruption and tampering downgrade to recomputation,
    never to a wrong answer. *)

val store : t -> key:string -> tile_model -> unit
(** [store t ~key model] persists an entry atomically (temp file +
    rename), together with a signed passivity certificate
    ({!Sn_numerics.Passivity.certify} over the reduced matrix, bound
    to [key]); a non-passive matrix — which a healthy extraction never
    produces — is stored uncertified, flagged by {!verify_dir} and
    refused by {!lookup}.  Failures are logged and swallowed: caching
    is an optimization, never a correctness dependency.  Only a
    completed rename counts in [stores]. *)

(** {1 Input-key index}

    What a cold extraction produced, keyed by a digest of its inputs
    ({!Extractor.input_key}).  Bounded to a fixed number of entries per
    handle on a {!Sn_numerics.Lru} map (the least recently recalled or
    recorded entry is evicted first), guarded by a mutex, and lost with
    the handle: nothing here touches the disk.  An entry goes
    stale on its own when a tile file is deleted, corrupted or
    replaced, because the extractor re-runs {!lookup} on every
    recorded content key before serving it. *)

type recorded_tile = {
  content_key : string;  (** the tile's content key in this cache *)
  tile_labels : string array;  (** its retained-node labels *)
  dim : int;  (** its reduced matrix dimension *)
}

type recorded = {
  tile_entries : recorded_tile array;  (** one per tile, in tile order *)
  conductance : float array;
      (** row-major stitched port conductance matrix *)
  grid_cells : int;  (** cells of the grid the cold run built *)
  interface_nodes : int;  (** interface cells it stitched *)
}

val recall : t -> input_key:string -> recorded option
(** [recall t ~input_key] is a copy of the recorded entry, if any. *)

val remember : t -> input_key:string -> recorded -> unit
(** [remember t ~input_key r] records a copy of [r], replacing any
    entry under the same key. *)

val format_version : int
(** Serialization format version; bumping it invalidates every
    existing entry.  Version 3 added the passivity certificate. *)

(** {1 Certificate verification}

    [snoise verify --cache-dir DIR] and the server's [verify] verb
    re-judge every entry from its bytes alone: signature hashing for
    certified entries (O(dim²)), a fresh LDLᵀ for uncertified ones —
    never an extraction, never a CG iteration.  {!lookup} applies the
    same judgement. *)

(** How one entry verified. *)
type entry_status =
  | Certified  (** stored signature verifies against the entry bytes *)
  | Recertified
      (** no stored certificate (pre-certificate writer or a store
          that failed certification), but the matrix passes a fresh
          PSD check *)
  | Stale
      (** older format version — harmless, the extractor treats it as
          a miss *)
  | Bad of string  (** corrupt, tampered or genuinely non-passive *)

type verification = {
  vf_entries : (string * entry_status) list;
      (** (key, judgement), sorted by key *)
  vf_certified : int;
  vf_recertified : int;
  vf_stale : int;
  vf_bad : int;
}

val status_name : entry_status -> string
(** Stable kebab-case name for JSON output: ["certified"],
    ["recertified"], ["stale"], ["bad"]. *)

val verify_dir : t -> verification
(** Judge every [*.tile] entry under the cache directory.  A cache
    passes verification iff [vf_bad = 0]. *)

(** {1 Process-wide counters} *)

type counters = {
  lookups : int;
  hits : int;  (** lookups that returned a (verified) model *)
  rejected : int;
      (** lookups whose entry exists but {!verify_dir} would judge {!Bad}
          — corruption, tampering or a non-passive matrix caught in
          time *)
  stores : int;  (** entries actually written (rename completed) *)
}

val counters : unit -> counters
(** Lifetime totals for this process ([snoise runtime], server
    stats). *)

(** {1 Process-wide default}

    The CLI flags [--cache-dir DIR] / [--no-cache] and the
    [SNOISE_CACHE_DIR] environment variable select the default cache
    consulted by {!Extractor.extract} when no explicit cache is
    passed. *)

val set_default_dir : string option -> unit
(** [set_default_dir (Some d)] selects [d]; [set_default_dir None]
    disables caching for the process, overriding the environment. *)

val default : unit -> t option
(** The selected default cache: the last {!set_default_dir}, else
    [SNOISE_CACHE_DIR] from the environment, else [None] (caching
    off). *)

(** Where the process-wide default came from, in precedence order:
    the CLI flags beat the environment, and an untouched process
    reports [Unset_default]. *)
type origin =
  | Flag  (** [--cache-dir DIR] (a {!set_default_dir} with a path) *)
  | Env  (** [SNOISE_CACHE_DIR] from the environment *)
  | No_cache_flag  (** [--no-cache] (a {!set_default_dir} with [None]) *)
  | Unset_default  (** nothing selected: caching off *)

type resolution = { origin : origin; dir : string option }
(** The resolved default-cache state: [dir] is [None] exactly when
    caching is off. *)

val origin_name : origin -> string
(** Stable name for reports and the server stats JSON:
    ["--cache-dir"], ["SNOISE_CACHE_DIR"], ["--no-cache"] or
    ["unset"]. *)

val resolution : unit -> resolution
(** How the default cache resolved for this process — what
    [snoise runtime] and the server's [stats] reply report, so
    warm-vs-cold extraction behaviour is diagnosable. *)

val pp_resolution : Format.formatter -> resolution -> unit
(** E.g. ["/tmp/tiles (from SNOISE_CACHE_DIR)"] or
    ["disabled (no --cache-dir and no SNOISE_CACHE_DIR set)"]. *)
