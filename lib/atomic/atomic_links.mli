(** Atomic splittable routing on parallel links.

    The paper's model has an *infinite* population of users, each with
    infinitesimal flow; the Stackelberg literature it builds on (Korilis–
    Lazar–Orda [20, 21]) starts from finitely many players, each routing a
    non-negligible demand it may split across links. This module implements
    that finite game as a substrate:

    - a player's best response, given the others' link loads [o], is the
      minimizer of [Σᵢ xᵢ·ℓᵢ(oᵢ + xᵢ)] — computed exactly by reusing the
      water-filling optimum of the [o]-shifted instance;
    - equilibria are found by round-robin best-response dynamics, which
      converge for the convex latency classes used here;
    - as the number of players grows (fixed total demand split evenly),
      the atomic equilibrium converges to the paper's Wardrop equilibrium
      — the classical justification for the infinite-user model, checked
      in the tests and in experiment E19.

    Latencies must be convex and strictly increasing (or constant); this
    makes each best response a convex program. *)

type t = private {
  latencies : Sgr_latency.Latency.t array;
  demands : float array;  (** One demand per player, all [>= 0]. *)
}

type profile = float array array
(** [profile.(k).(i)] — player [k]'s flow on link [i]. *)

val make : Sgr_latency.Latency.t array -> demands:float array -> t
(** @raise Invalid_argument on an empty system or a negative demand. *)

val split_evenly : Sgr_latency.Latency.t array -> total:float -> players:int -> t
(** Total demand divided equally among [players] identical players. *)

val total_load : t -> profile -> float array
(** Per-link load summed over players. *)

val social_cost : t -> profile -> float
(** [Σᵢ Xᵢ·ℓᵢ(Xᵢ)] at the profile's total load. *)

val player_cost : t -> profile -> int -> float
(** [Σᵢ xᵢ·ℓᵢ(Xᵢ)] — what player [k]'s flow experiences. *)

val best_response : t -> profile -> player:int -> float array
(** Player [k]'s exact best response to the others' current loads. *)

val equilibrium : t -> profile * int
(** Round-robin best-response dynamics from the empty profile until no
    player moves more than [1e-9] in max-norm, or [10_000] sweeps.
    Returns the profile and the number of sweeps used. *)

val is_equilibrium : ?eps:float -> t -> profile -> bool
(** Every player's strategy is within [eps] (default
    {!Sgr_numerics.Tolerance.check_eps}) of the cost of its exact best
    response. *)
