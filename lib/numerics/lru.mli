(** Bounded string-keyed LRU map.

    The one eviction policy of every resident cache: the serving
    layer's plan, parse, macromodel and VCO-flow caches, and each tile
    cache handle's input-key index.  Recency is a monotonic tick;
    eviction is an O(n) minimum scan, which at the
    single-digit-to-hundreds capacities used here is cheaper than
    intrusive-list bookkeeping.

    Not thread-safe — callers serialize access under their own
    lock. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] makes an empty cache holding at most
    [capacity] entries.  @raise Invalid_argument if [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Look up a key, refreshing its recency on a hit. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or replace) a binding, evicting least-recently-used
    entries until the cache fits its capacity. *)

val trim : 'a t -> max_entries:int -> int
(** [trim t ~max_entries] evicts LRU entries until at most
    [max_entries] remain (memory-pressure shedding); returns how many
    were dropped. *)

val fold : (string -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** [fold f t init] folds over every resident binding in unspecified
    order, leaving recency unchanged. *)

val length : 'a t -> int
(** Resident entries. *)

val capacity : 'a t -> int

val evictions : 'a t -> int
(** Total evictions since creation (capacity plus {!trim}). *)

val clear : 'a t -> unit
(** Drop every entry.  The eviction count is kept. *)
