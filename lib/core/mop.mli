(** Algorithm [MOP] — the price of optimum on arbitrary networks
    (Theorem 2.1, Corollaries 2.3; Section 5.1).

    On a k-commodity instance [(G, r)]:

    + compute the optimum edge flow [O] and set edge costs [ℓ_e(o_e)];
    + per commodity, find the subgraph [G'] of edges lying on *shortest*
      sᵢ–tᵢ paths under those costs;
    + the flow the Followers can be trusted with — the "free flow" — is the
      largest amount routable inside [G'] without exceeding any edge's
      optimal load: a max-flow with capacities [oᵉ] (footnote 5);
    + the Leader must control everything else: the optimal flow on every
      non-shortest path. [β_G = 1 - (free flow)/r].

    Minimality (Section 5.1): controlling more than [O_P] on any path, or
    less than [O_P] on a non-shortest path, or anything on a shortest path,
    provably yields a suboptimal induced flow. *)

type commodity_report = {
  index : int;  (** Commodity number. *)
  on_shortest : bool array;
      (** Per edge: lies on a shortest sᵢ–tᵢ path under optimal costs. *)
  free_flow : float;  (** Demand the Followers route on their own. *)
  controlled : float;  (** Leader-controlled demand [rᵢ - free_flow]. *)
  leader_edge_flow : float array;  (** This commodity's Leader edge flow. *)
  leader_paths : (Sgr_graph.Paths.t * float) list;
      (** Path decomposition of the Leader's flow (the strategy as the
          paper states it: the optimal flow of each non-shortest path). *)
  follower_paths : (Sgr_graph.Paths.t * float) list;
      (** A shortest-path decomposition of the free flow. *)
}

type result = {
  beta : float;
      (** The price of optimum [β_G] for a *strong* Stackelberg Leader
          (Section 4): the Leader may split her budget unevenly across
          commodities ([Σ αᵢrᵢ = β·r]). *)
  beta_weak : float;
      (** Minimum [α] for a *weak* Leader, who must control the same
          fraction [α] of every commodity: [max_i (controlledᵢ / rᵢ)].
          Always [>= beta]. *)
  leader_edge_flow : float array;  (** Total Leader strategy, by edge. *)
  follower_demands : float array;  (** Free flow per commodity. *)
  per_commodity : commodity_report array;
  opt_edge_flow : float array;  (** The optimum [O]. *)
  opt_cost : float;  (** [C(O)]. *)
  nash_cost : float;  (** [C(N)] of the unaided equilibrium. *)
  induced : Induced.outcome;
      (** The verified induced game: [induced.cost = opt_cost] and
          [induced.combined_edge_flow = O] up to solver tolerance. *)
}

val run : Sgr_network.Network.t -> result
(** The equilibria are solved to gap [1e-9] ({!Sgr_network.Equilibrate});
    an edge lies on a shortest path when the cheapest path through it is
    within [1e-6] (relative) of the shortest distance, a slack that
    dominates that gap. *)

val beta : Sgr_network.Network.t -> float

val verify_minimality : Sgr_network.Network.t -> result -> bool
(** Numerical check of Section 5.1's minimality argument: for each Leader
    path, releasing [0.05] of the path's controlled flow (at least
    [1e-3]) back to the Followers yields an induced cost
    strictly above [C(O)] — i.e. no part of the Leader's flow is
    dispensable. Returns [false] if any release stays optimal (within
    solver noise). Skips paths carrying less than [1e-6] flow. *)
