(** Optimal Stackelberg strategies on hard instances [(M, r, α < β_M)]
    with common-slope linear latencies (Theorem 2.4, Section 6).

    Setting: [m] parallel links with [ℓᵢ(x) = a·x + bᵢ], [a > 0],
    [bᵢ >= 0]. Lemma 6.1 shows some optimal Leader strategy splits the
    links (sorted by intercept) into a prefix [M>0] that receives induced
    selfish flow and a suffix [M=0] that does not. Conditioned on the split
    position [i₀] and on the amount [ε] of Leader flow placed inside the
    prefix, the induced cost is

    [Nash-cost(M>0, (1-α)r + ε) + Opt-cost(M=0, αr - ε)],

    feasible when the prefix's common Nash latency does not exceed any
    suffix latency (otherwise Followers would invade the suffix) and every
    prefix link is loaded. The first summand increases and the second
    decreases in [ε], so the sum is minimized by a one-dimensional convex
    search; minimizing over the [m] split positions gives the optimum. *)

type candidate = {
  i0 : int;  (** Split position: prefix = sorted links [0..i0-1]. *)
  epsilon : float;  (** Leader flow merged into the prefix. *)
  cost : float;  (** Induced cost of this candidate. *)
}

type result = {
  strategy : float array;  (** Optimal Leader assignment, original indexing. *)
  induced_cost : float;  (** Its [C(S+T)], recomputed via the induced game. *)
  predicted_cost : float;  (** The partition formula's value (should agree). *)
  best : candidate;
  candidates : candidate list;  (** Best candidate per feasible split. *)
}

val solve : Sgr_links.Links.t -> alpha:float -> result
(** [solve t ~alpha] requires every latency affine with one common
    positive slope.
    @raise Invalid_argument otherwise, or when [alpha ∉ [0,1]].

    The convex search in [ε] starts from 64 seed points (each refined
    by golden section), guarding against flat/boundary degeneracies. *)

val is_common_slope : ?eps:float -> Sgr_links.Links.t -> bool
(** Whether the instance is in Theorem 2.4's class. *)
