(** In-place band Cholesky [A = L L{^T}] for symmetric positive-definite
    matrices: the coarsest multigrid level's direct solve ({!Mg}) and
    the interface-skeleton elimination of the tiled substrate stitch.
    A dense matrix is the band with [bw = n - 1].

    L is stored by rows over the band: entry [(k, j)], for
    [k - bw <= j <= k], lives at [l.(index ~bw k j)], so an [n x n]
    factor takes [n * (bw + 1)] floats.  Before {!factor} the same
    slots hold the lower band of [A]; the rest of the array is never
    read. *)

val index : bw:int -> int -> int -> int
(** [index ~bw k j] is the slot of entry [(k, j)], [k - bw <= j <= k]. *)

val factor : bw:int -> float array -> unit
(** [factor ~bw l] overwrites the lower band of [A] held in [l] with
    its Cholesky factor [L].
    Raises {!Lu.Singular}[ k] at the first non-positive (or NaN) pivot,
    band row [k] (the factor is then partial), and [Invalid_argument]
    when [bw < 0] or the length of [l] is not a multiple of [bw + 1]. *)

val forward : bw:int -> float array -> Vec.t -> unit
(** [forward ~bw l y] solves [L z = y] in place ([y <- z]).
    Raises [Invalid_argument] when [y] does not match the factor. *)

val backward : bw:int -> float array -> Vec.t -> unit
(** [backward ~bw l y] solves [L{^T} z = y] in place, reading [L] by
    rows.  [forward] then [backward] is the solve of [A x = y].
    Raises [Invalid_argument] when [y] does not match the factor. *)
