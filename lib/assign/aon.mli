(** Batched all-or-nothing assignment on the CSR graph.

    One Dijkstra tree per *distinct* commodity source (commodities
    sharing a source share a tree), fanned over the ambient worker pool.
    Each tree stops once its commodities' sinks are settled and is
    guided towards them by an A* potential, the free-flow distance to
    the nearest sink, so it costs roughly the nodes between source and
    sinks rather than the whole graph. Each tree hands back only its
    commodities' paths; demand accumulation runs sequentially in
    commodity order, so the resulting edge flow is byte-identical at
    any [--jobs]. *)

type plan
(** Source-grouping of a network's commodities, computed once per solve
    and reused every iteration. *)

val plan : ?jobs:int -> Sgr_network.Network.t -> plan
(** Groups the commodities by source, records each source's sinks and
    computes its A* potential: one reverse Dijkstra from all of its
    sinks on the {!weight_floor} weights, fanned over the pool ([jobs]
    as in {!assign}). Networks whose potentials would exceed 2{^22}
    floats (trees × nodes) keep none, and their trees run sink-bounded
    but unguided. *)

val num_trees : plan -> int
(** Number of distinct source nodes, i.e. Dijkstra trees per call. *)

val weight_floor : plan -> float array
(** Per edge, [max 0 ℓ_e(0)]: a lower bound on the latency and on the
    marginal cost at every flow [x >= 0]. Gradients clamped to it keep
    the A* potentials valid. The array is the plan's own; do not
    mutate it. *)

val assign :
  ?jobs:int ->
  ?record:(commodity:int -> path:Sgr_graph.Paths.t -> unit) ->
  plan ->
  Sgr_network.Network.t ->
  weights:float array ->
  into:float array ->
  unit
(** [assign plan net ~weights ~into] zeroes [into] and adds, for every
    commodity, its full demand along a shortest [src]–[dst] path under
    [weights] (ties broken by the deterministic Dijkstra tree). The
    shortest-path trees run on the pool ([jobs] defaults to the ambient
    pool width); accumulation is sequential in commodity order. The
    potentials guide the trees only when every weight is at least its
    {!weight_floor}; otherwise the trees run unguided, so any
    nonnegative weights give shortest paths.
    [record], when given, receives each commodity's routed path (edge
    ids, source to sink) — the only way paths ever materialize here,
    and only for callers that ask. Checkpoints the per-domain deadline
    between trees and commodities.
    @raise Invalid_argument when a commodity's sink is unreachable. *)
