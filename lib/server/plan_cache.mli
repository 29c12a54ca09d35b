(** In-memory content-addressed cache of compiled simulation
    artifacts — what keeps a resident [snoise serve] process hot.

    Three layers, all keyed by {e content} digests so a stale hit is
    impossible (the same discipline as the on-disk
    {!Sn_substrate.Cache} for tiles):

    - {b parse layer}: deck text digest -> parsed
      {!Sn_circuit.Netlist.t}.  Editing a deck file changes its
      digest, which is the whole invalidation story.
    - {b plan layer}: (deck text digest, canonical overrides) ->
      {!Snoise.Flow.compiled} — the lint verdict, MNA structure and
      compiled stamp plan.  The {!Snoise.Flow.compiled} value itself
      memoizes the DC bias and the complex AC plan, so the
      (deck, bias point) -> [Ac_plan] mapping rides on this layer.
    - {b macro layer}: layout text digest -> extracted substrate
      macromodel (the [extract] verb).

    Every layer is a {!Sn_numerics.Lru} map, evicted
    least-recently-used: the plan and macro layers hold at most
    [max_decks] entries each, the parse layer [2 × max_decks] (it only
    exists to de-duplicate work between override variants of one
    deck).  All operations are thread-safe. *)

type t

val create : ?max_decks:int -> unit -> t
(** [create ()] builds an empty cache holding at most [max_decks]
    (default 128) compiled plans and as many extracted macromodels. *)

val deck_key : text:string -> overrides:(string * float) list -> string
(** The plan-layer key: a digest over the deck text and the
    canonically-rendered (sorted) overrides.  Exposed so tests and
    [docs/SERVER.md] can state the cache-key semantics precisely. *)

val find_netlist :
  t -> text:string -> parse:(string -> Sn_circuit.Netlist.t) ->
  Sn_circuit.Netlist.t
(** [find_netlist t ~text ~parse] returns the cached parse of [text]
    or runs [parse text] and caches it.  Parser exceptions propagate
    and cache nothing. *)

(** One plan-layer entry: the compiled plan, stored alongside the
    reduced pool model and its passivity certificates when the deck
    went through model-order reduction on the way in ([None]/[None]
    for an unreduced deck).  The certificates let {!verify_plans}
    re-judge a warm plan by hashing alone. *)
type certified_plan = {
  cp_plan : Snoise.Flow.compiled;
  cp_reduced : Snoise.Reduced_model.t option;
  cp_cert :
    (Sn_numerics.Passivity.cert * Sn_numerics.Passivity.cert) option;
}

val find_compiled :
  t -> key:string -> compile:(unit -> certified_plan) ->
  certified_plan * Protocol.cache_note
(** [find_compiled t ~key ~compile] returns the cached compiled deck
    for [key] (a {!deck_key}) and {!Protocol.Hit}, or runs [compile]
    and caches its result with {!Protocol.Miss}.  A [compile] that
    raises (lint refusal, bad deck) caches nothing, so a fixed deck
    re-compiles cleanly. *)

(** {2 Certificate verification} — the plan-cache half of the server's
    [verify] verb. *)

type plan_verification = {
  pv_plans : int;  (** resident plans judged *)
  pv_exact : int;  (** never reduced: nothing to certify *)
  pv_certified : int;  (** certificate re-verified against the pencil *)
  pv_uncertified : int;
      (** reduced, but certification was refused at compile time *)
  pv_bad : int;  (** stored certificate no longer matches its pencil *)
}

val verify_plans : t -> plan_verification
(** Re-verify every resident plan's reduction certificate
    ({!Snoise.Reduced_model.verify_certificate}: hashing only — no
    compile, no factorization).  A healthy cache has [pv_bad = 0]. *)

val find_macro :
  t -> text:string ->
  extract:(unit -> Sn_substrate.Macromodel.t) ->
  Sn_substrate.Macromodel.t * Protocol.cache_note
(** Layout-extraction layer, keyed by layout text digest and bounded
    at [max_decks] macromodels like the plan layer. *)

(** Monotonic hit/miss/eviction counters, exposed in the server's
    [stats] reply. *)
type stats = {
  plans : int;  (** compiled plans currently resident *)
  certified_plans : int;
      (** resident plans carrying a reduction passivity certificate *)
  plan_words : int;
      (** accounted heap words of the resident plans (weighed once at
          insert with [Obj.reachable_words]) — the plan-size half of
          the service's memory watermark *)
  plan_hits : int;
  plan_misses : int;
  parse_hits : int;
  parse_misses : int;
  macro_hits : int;
  macro_misses : int;
  evictions : int;
      (** LRU evictions from the plan layer, capacity and {!shed}
          alike *)
}

val stats : t -> stats

val plan_words : t -> int
(** Accounted heap words of the resident plan layer (see
    {!stats.plan_words}). *)

val shed : t -> keep:int -> int
(** [shed t ~keep] drops least-recently-used plans until at most
    [keep] remain, and likewise trims the macro layer to [keep]
    macromodels; it returns how many plans were evicted.  Called by
    the service when the memory watermark is crossed; the freed words
    leave the process on the next compaction. *)

val clear : t -> unit
(** Drop every entry (the bench's cold-cache mode).  Counters are
    preserved. *)
