(** Induced equilibria on networks (Section 4, multicommodity model).

    Once a Leader fixes edge flows [s], every Follower sees the
    a-posteriori latency [ℓ̃_e(x) = ℓ_e(s_e + x)]; the Followers'
    equilibrium [T] is the Wardrop equilibrium of the remaining demands on
    the shifted network, and the outcome of the game is the flow [S + T]
    priced by the *original* latencies. *)

type outcome = {
  follower_edge_flow : float array;  (** The induced equilibrium [T]. *)
  combined_edge_flow : float array;  (** [S + T]. *)
  cost : float;  (** [C(S+T)] under the original latencies. *)
  wardrop_gap : float;
      (** Residual equilibrium gap of the Follower solve (should be ~0). *)
}

val equilibrium :
  Sgr_network.Network.t ->
  leader_edge_flow:float array ->
  follower_demands:float array ->
  outcome
(** [equilibrium net ~leader_edge_flow ~follower_demands] solves the
    Followers' game. [follower_demands.(i)] is commodity [i]'s uncontrolled
    demand; it need not equal the commodity's original demand minus the
    leader's share — MOP computes it per commodity.
    @raise Invalid_argument on size mismatches or negative values. *)

val cost_of_strategy :
  Sgr_network.Network.t ->
  leader_edge_flow:float array ->
  follower_demands:float array ->
  float
(** Shorthand for [(equilibrium ...).cost]. *)
