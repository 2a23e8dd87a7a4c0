(** Marginal-cost pricing (Pigouvian tolls).

    The paper's introduction lists pricing policies as the other classical
    way to fight selfishness (Cocchi et al. [4]); Stackelberg routing was
    invented for settings where tolls are unavailable. This module
    implements the textbook benchmark so the two levers can be compared:

    with tolls [τ = o·ℓ'(o)] charged at the optimum flow [o], the
    tolled selfish equilibrium (users minimize latency + toll) is exactly
    the system optimum — the first-best result Stackelberg control only
    achieves when the Leader owns [β] of the flow.

    Tolls enter as constants added to latencies, which the water-filling
    and path solvers already support; the "tolled cost" reported here is
    the *latency* cost [Σ x·ℓ(x)] of the tolled equilibrium (tolls are
    transfers, not social cost). *)

(** {1 Parallel links} *)

val links_tolls : Sgr_links.Links.t -> float array
(** Per-link marginal-cost toll [oᵢ·ℓᵢ'(oᵢ)] at the optimum [O]. *)

val tolled_links : Sgr_links.Links.t -> Sgr_links.Links.t
(** The instance users actually play: [ℓᵢ(x) + τᵢ]. *)

val links_outcome : Sgr_links.Links.t -> float array * float
(** [(equilibrium, latency_cost)] of the tolled instance; the cost is
    priced by the original latencies and equals [C(O)] (verified in
    tests). *)

(** {1 Networks} *)

val network_tolls : Sgr_network.Network.t -> float array
(** Per-edge marginal-cost toll [o_e·ℓ_e'(o_e)]. *)

val tolled_network : Sgr_network.Network.t -> Sgr_network.Network.t
(** The network with [ℓ_e(x) + τ_e] on every edge. *)

val network_outcome : Sgr_network.Network.t -> float array * float
(** [(edge_flow, latency_cost)] of the tolled Wardrop equilibrium —
    again [C(O)] under the original latencies. *)
