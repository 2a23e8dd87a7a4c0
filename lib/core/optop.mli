(** Algorithm [OpTop] (paper, Section 2 & 7.4; Corollary 2.2).

    Computes, on an s–t parallel-links instance [(M, r)], the *price of
    optimum* [β_M] — the minimum portion of the total flow a Stackelberg
    Leader must control to induce the optimum cost [C(O)] — together with
    the Leader's optimal strategy.

    The algorithm: compute the optimum [O] once; repeatedly compute the
    Nash assignment of the remaining free flow on the remaining links,
    freeze every *under-loaded* link (Definition 4.3: [nᵢ < oᵢ]) at its
    optimal load [oᵢ], discard it, and recurse; stop when no link is
    under-loaded. The discarded optimal loads are exactly the Leader's
    strategy and their total is [β_M·r]. Correctness rests on Theorems 7.2
    and 7.4 / Lemma 7.5. *)

type round = {
  active : int array;  (** Original link indices alive in this round. *)
  demand : float;  (** Free flow assigned in this round. *)
  nash : float array;  (** Nash on the subsystem (aligned with [active]). *)
  optimum : float array;  (** Optimum restriction (aligned with [active]). *)
  frozen : int array;  (** Original indices frozen (under-loaded) this round. *)
}

type result = {
  beta : float;  (** The price of optimum [β_M ∈ [0, 1]]. *)
  strategy : float array;  (** Leader flow per link; sums to [β_M·r]. *)
  rounds : round list;  (** Per-round trace, first round first. *)
  optimum : float array;  (** The global optimum assignment [O]. *)
  optimum_cost : float;  (** [C(O)]. *)
  nash_cost : float;  (** [C(N)] of the unaided equilibrium. *)
  induced_cost : float;
      (** [C(S + T)] of the returned strategy — equals [C(O)] up to solver
          tolerance (checked by the test suite). *)
}

val run : Sgr_links.Links.t -> result
(** A link counts as under-loaded ([nᵢ < oᵢ]) when it falls short by more
    than [1e-8] relative to [max 1 r]. *)

val beta : Sgr_links.Links.t -> float
(** Just the price of optimum. *)
