(** In-place envelope (profile) Cholesky [A = L L{^T}] for symmetric
    positive-definite matrices: the coarsest multigrid level's direct
    solve ({!Mg}) and the interface-skeleton elimination of the tiled
    substrate stitch.

    L is stored by rows over an envelope: row [k] holds columns
    [first.(k)] through [k], and entry [(k, j)] lives at
    [l.(index t k j)], so a factor takes [size t] floats.  L has no
    entry left of the first non-zero of [A]'s row, so any [first] at
    or left of those columns holds the exact factor.  A band of
    half-width [bw] is the envelope [first.(k) = max 0 (k - bw)], and
    a dense matrix the band [bw = n - 1].  Before {!factor} the same
    slots hold the lower envelope of [A].  The sweeps solve up to four
    interleaved right-hand sides at once, each bit-identical to its
    one-lane solve. *)

type t
(** The envelope shape of an [n x n] factor. *)

val envelope : int array -> t
(** [envelope first] stores row [k] from column [first.(k)] on.
    Raises [Invalid_argument] unless [0 <= first.(k) <= k] for every
    row. *)

val size : t -> int
(** Number of stored entries: the length of the factor's array. *)

val index : t -> int -> int -> int
(** [index t k j] is the slot of entry [(k, j)],
    [first.(k) <= j <= k]. *)

val factor : t -> float array -> unit
(** [factor t l] overwrites the lower envelope of [A] held in [l] with
    its Cholesky factor [L].  The inner product of rows [k] and [j]
    runs from [max first.(k) first.(j)]: every term a wider envelope
    adds to it is an exact zero.
    Raises {!Lu.Singular}[ k] at the first non-positive (or NaN) pivot,
    row [k] (the factor is then partial), and [Invalid_argument] when
    the length of [l] is not [size t]. *)

val forward : t -> float array -> lanes:int -> Vec.t -> unit
(** [forward t l ~lanes y] solves [L z = y] in place ([y <- z]) for
    [lanes] (1 to 4) interleaved right-hand sides: entry [(k, c)] of
    [y] is [y.(lanes * k + c)].  Each entry of [L] is read once and
    applied to every lane, and each lane's result is bit-identical to
    a one-lane solve of that column alone.
    Raises [Invalid_argument] when [l] or [y] does not match [t] or
    [lanes] is outside 1..4. *)

val backward : t -> float array -> lanes:int -> Vec.t -> unit
(** [backward t l ~lanes y] solves [L{^T} z = y] in place, reading [L]
    by rows, on the same lane layout as {!forward}.  [forward] then
    [backward] is the solve of [A x = y].
    Raises [Invalid_argument] when [l] or [y] does not match [t] or
    [lanes] is outside 1..4. *)
