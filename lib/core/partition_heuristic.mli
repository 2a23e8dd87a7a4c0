(** A Theorem-2.4-shaped heuristic for hard instances with {e arbitrary}
    latencies.

    Theorem 2.4's exactness rests on Lemma 6.1, whose swap argument needs
    common-slope linear latencies. The same *search* still makes sense for
    any instance: order the links (by latency at zero flow — the natural
    generalization of the intercept order), try every prefix/suffix split
    [(M>0, M=0)], let the suffix be frozen at the optimum of [αr - ε]
    while the prefix absorbs the Followers plus [ε], and minimize over the
    one-dimensional [ε] by golden search.

    The result is a feasible Leader strategy whose induced cost:
    - equals the exact optimum when the instance {e is} in Theorem 2.4's
      class (checked against {!Linear_exact} in the tests);
    - is an upper bound elsewhere — empirically much tighter than LLF or
      SCALE on hard instances (experiment E18). It is still only a
      heuristic: unimodality of the inner search and optimality of the
      prefix ordering are not guaranteed outside the linear class. *)

type result = {
  strategy : float array;  (** Feasible Leader assignment (original order). *)
  induced_cost : float;  (** Verified [C(S+T)] of the strategy. *)
  i0 : int;  (** Chosen split: prefix size in the zero-latency order. *)
  epsilon : float;  (** Leader flow merged into the prefix. *)
}

val solve : Sgr_links.Links.t -> alpha:float -> result
(** [solve t ~alpha] searches all splits; 64 grid points seed the inner
    ε-search. Always returns a feasible strategy (worst case: the
    useless proportional-to-Nash strategy, costing [C(N)]).
    @raise Invalid_argument when [alpha ∉ [0,1]]. *)
