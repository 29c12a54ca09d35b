(** PRIMA-style block-Krylov model-order reduction for passive
    [(G, C)] pencils.

    Given the MNA pencil [G + s C] of a passive RC(L) network whose
    unknowns split into {e port} rows (kept explicit) and {e internal}
    rows (candidates for elimination), {!reduce} builds an orthonormal
    block-Krylov basis [V] of the internal moment space around an
    expansion point [s0],

    {v A = G_II + s0 C_II,   span V ⊇ A⁻¹[G_IP C_IP], A⁻¹C_II A⁻¹[…], … v}

    and projects by block-diagonal congruence [W = blkdiag(I_P, V)]:

    {v Ĝ = Wᵀ G W,   Ĉ = Wᵀ C W v}

    Because the projection is a congruence, symmetry and positive
    semidefiniteness of [G] and [C] carry over to [Ĝ] and [Ĉ] — the
    reduced pencil is again a passive RC network (PRIMA's passivity
    argument), and because the Krylov space contains the first [order]
    block moments at [s0], the reduced port response matches the exact
    one to [order] moments there.  A separate DC correction block
    spanning [G_II⁻¹ G_IP] keeps the [s = 0] response — a deck's DC
    bias — exact whatever the expansion point (see {!result.dc_exact}).

    The internal solves reuse one {!Splu} factorization of [A] for
    every basis column, so building a rank-[k] model costs one sparse
    factorization plus [k] triangular solves. *)

type result = {
  nports : int;  (** ports kept explicit (first [nports] reduced rows) *)
  internal : int;  (** internal unknowns of the input pencil *)
  rank : int;  (** orthonormal basis columns retained after deflation *)
  order : int;  (** block moments requested *)
  dc_exact : bool;
      (** the basis spans [G_II⁻¹ G_IP], so the reduced model's [s = 0]
          response — a deck's DC bias — is exact.  False only when
          [G_II] alone is singular (capacitor-only internal nodes). *)
  ghat : Mat.t;  (** reduced conductance, [(nports + rank)]² *)
  chat : Mat.t;  (** reduced capacitance, same shape *)
  build_seconds : float;  (** wall time of factorization + projection *)
}

val reduce :
  ?s0:float -> ?order:int -> g:Sparse.t -> c:Sparse.t -> int array -> result
(** [reduce ?s0 ?order ~g ~c ports] reduces the pencil [(g, c)] keeping
    the unknowns listed in [ports] explicit.  [g] and [c] must be
    square, symmetric, and of equal dimension; [ports] must be distinct
    in-range indices.  [s0] is the expansion point in rad/s (default
    [2π · 1e8]); [order] is the number of block moments to match
    (default 2, clamped to at least 1).  The basis is deflated
    (near-dependent columns dropped) and capped at the internal
    dimension, so [rank <= internal] always holds and full rank
    reproduces the exact port behaviour.

    Raises [Invalid_argument] on shape/port errors and {!Splu.Singular}
    when [G_II + s0 C_II] is singular (an internal node with no path to
    any port or ground — such networks are not reducible). *)

val port_admittance :
  g:Mat.t -> c:Mat.t -> ports:int array -> omega:float -> Complex.t array array
(** [port_admittance ~g ~c ~ports ~omega] is the exact port admittance
    [Y(jω) = K_PP - K_PI K_II⁻¹ K_IP] of the dense pencil
    [K = g + jω c] — the reference against which reduced models are
    judged, and the evaluator for the (small, dense) reduced pencils
    themselves.  Dense [O(n³)]; meant for reduced models and test-sized
    exact references.
    Raises [Lu.Singular] when the internal block is singular at [jω]. *)

val psd_defect_index : Mat.t -> float * int
(** [psd_defect_index m] measures how far the symmetric part of [m] is
    from positive semidefinite: the most negative LDLᵀ pivot
    encountered (0 when none is negative), and the elimination index
    at which it occurred — the unknown a passivity certificate or
    diagnostic should name ([0] when the matrix is PSD).  A passive
    reduced pencil has a defect [>= -tol] for a tiny round-off [tol]
    in both [ghat] and [chat]. *)
