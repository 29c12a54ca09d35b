(** Direct node-elimination macromodel reduction — the classic
    star-mesh (Gaussian elimination on the conductance graph)
    alternative to the CG-based Schur complement in {!Extractor}.

    Eliminating node k with self-conductance g_kk rewrites each
    neighbour pair (i, j) with g_ij += g_ik g_jk / g_kk.  Exact, but
    fill-in grows quickly on 3-D grids, so this path suits small grids
    and serves as an independent cross-check of the iterative
    reduction (they must agree to solver tolerance — asserted in the
    test suite). *)

type network
(** A mutable conductance network under reduction. *)

val of_conductances :
  n:int -> ports:int array -> (int * int * float) list -> network
(** [of_conductances ~n ~ports edges] builds the network on nodes
    [0 .. n-1]; [ports] are the node indices to keep.  Edges are
    (node, node, conductance) branches.
    Raises [Invalid_argument] on out-of-range indices or non-positive
    conductances. *)

val eliminate_internal : network -> unit
(** Eliminate every non-port node, lowest-degree first (a greedy
    minimum-degree ordering refreshed on the fly; ties go to the
    lowest node index).  Each pick re-scans the whole network, O(n). *)

val port_conductance : network -> Sn_numerics.Mat.t
(** The reduced port Laplacian, indexed by the order of [ports].
    Only meaningful after {!eliminate_internal}. *)

val reduce_grid :
  ?config:Grid.config -> tech:Sn_tech.Tech.t -> die:Sn_geometry.Rect.t ->
  Port.t list -> Macromodel.t
(** Drop-in alternative to {!Extractor.extract} using direct
    elimination.  Intended for small grids (the cost grows steeply
    with grid size). *)
