(** Atomic splittable routing on networks.

    The network analogue of {!Atomic_links}: finitely many players, each
    owning one commodity's demand, split their flow over paths. A player's
    best response to the others' edge loads [o] minimizes
    [Σ_e x_e·ℓ_e(o_e + x_e)] — the *system optimum* of the [o]-shifted
    network, solved by path equilibration on marginal costs. Round-robin
    best responses converge for the convex latency classes used here.

    Includes the atomic version of the Braess story: with few players the
    shortcut is used less aggressively than in the Wardrop limit, and the
    equilibrium cost interpolates between [C(O)] (one player) and [C(N)]
    (many players). *)

type t = private {
  network : Sgr_network.Network.t;
      (** One commodity per player; the commodity's demand is the player's. *)
}

type profile = float array array
(** [profile.(k)] — player [k]'s edge flow. *)

val make : Sgr_network.Network.t -> t
(** Each commodity of the network becomes one atomic player.
    @raise Invalid_argument if the network has no commodities. *)

val replicate : Sgr_network.Network.t -> players:int -> t
(** Single-commodity convenience: split the (single) commodity's demand
    evenly among [players] identical players.
    @raise Invalid_argument unless the network has exactly one commodity
    and [players >= 1]. *)

val total_load : t -> profile -> float array
val social_cost : t -> profile -> float

val player_cost : t -> profile -> int -> float
(** [Σ_e x_e·ℓ_e(X_e)] for player [k]'s own edge flow [x]. *)

val best_response : t -> profile -> player:int -> float array
(** Exact best response (system optimum of the shifted network). *)

val equilibrium : t -> profile * int
(** Round-robin best responses from the empty profile; stops when no
    player moves more than [1e-8] in max-norm, or after [2_000] rounds.
    Returns the profile and the number of rounds. *)

val is_equilibrium : ?eps:float -> t -> profile -> bool
(** Every player is within [eps] (default [1e-5]) of its best-response
    cost. *)
