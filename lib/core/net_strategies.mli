(** Stackelberg heuristics on networks.

    After the paper's publication, SCALE and LLF-style strategies were
    analyzed on general networks (Karakostas–Kolliopoulos; Swamy; Bonifaci–
    Harks–Schäfer — see Section 1.1(ii)). This module implements both so
    the library can compare MOP's exact β-threshold behaviour against the
    budget-parameterized heuristics the literature studies:

    - [SCALE]: the Leader routes [α·O] — the optimum scaled down.
    - [LLF]: per commodity, saturate optimal *path* flows to their optimal
      value in decreasing order of path latency at the optimum, until the
      budget [α·rᵢ] is exhausted (the natural path analogue of
      Roughgarden's Largest Latency First). *)

type outcome = {
  leader_edge_flow : float array;
  induced : Induced.outcome;  (** The Followers' reaction and [C(S+T)]. *)
  ratio_to_opt : float;  (** [C(S+T)/C(O)] — the a-posteriori anarchy cost. *)
}

val scale : Sgr_network.Network.t -> alpha:float -> outcome
(** Weak strategy: every commodity gives up the same fraction [α].
    @raise Invalid_argument unless [0 <= alpha <= 1]. *)

val llf : Sgr_network.Network.t -> alpha:float -> outcome
(** Path-based LLF with per-commodity budget [α·rᵢ].
    @raise Invalid_argument unless [0 <= alpha <= 1]. *)

val aloof : Sgr_network.Network.t -> outcome
(** The empty strategy: Followers produce the plain Wardrop flow. *)
