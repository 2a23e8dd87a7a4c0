(** Column-generation path equilibration.

    Instead of enumerating every simple path (exponential on grids, and
    hard-capped by {!Sgr_graph.Paths.enumerate}), the solver keeps a
    small {e active} column set per commodity: it equalizes flow on the
    active columns with the pairwise-shift inner loop, then {e prices}
    new columns by running Dijkstra on the current edge values — the
    latencies for a Wardrop equilibrium, the marginals for the system
    optimum — and admits the shortest path whenever it undercuts the
    cheapest active column by more than [1e-9] (relative at scale).
    Convergence is declared when no commodity prices a new column, at
    which point every used column's cost is within [1e-9] of a
    network-wide shortest path, i.e. the true Wardrop (resp.
    optimality) gap is at most [1e-9].

    This is the solver behind {!Equilibrate.solve}; the
    enumeration-based oracle {!Equilibrate.exhaustive} runs
    {!solve_on_paths} for cross-checking on small instances. *)

type solution = {
  edge_flow : float array;  (** Per-edge flow at termination. *)
  path_flows : float array array;
      (** Per-commodity path flows, aligned with [paths]. *)
  paths : Sgr_graph.Paths.t array array;
      (** The path sets the solver worked over: the priced active
          columns under column generation, the caller's set under
          {!solve_on_paths}. *)
  sweeps : int;  (** Number of full commodity equalization sweeps. *)
  gap : float;
      (** Max over commodities of (costliest used path − cheapest path)
          under the objective's edge values at termination. *)
}

val solve : Objective.t -> Network.t -> solution
(** [solve obj net] runs pricing rounds until no commodity admits a new
    column (or [1_000] rounds elapse), keeping the total equalization
    sweeps across all rounds under [200_000]. [gap] in the result is
    the true residual gap — costliest used column against the
    network-wide Dijkstra shortest path — not merely the active-set
    gap.

    Counters: [column_gen.pricing_rounds], [column_gen.columns], and
    the shared [equilibrate.sweeps]. Span: [column_gen.solve]. Trace
    points are emitted per pricing round under solver ["column_gen"]
    (with [step] = columns admitted that round) and per inner sweep
    under solver ["equilibrate"]. *)

val solve_on_paths :
  Objective.t -> Network.t -> paths:Sgr_graph.Paths.t array array -> solution
(** Equalize on a fixed caller-provided path set, to the same gap
    ([1e-9]) and sweep budget ([200_000]) as {!solve} — the exhaustive
    oracle when [paths] is the full enumeration. *)

val commodity_gap :
  Objective.t ->
  Network.t ->
  edge_flow:float array ->
  paths:Sgr_graph.Paths.t array ->
  flows:float array ->
  float
(** Gap of a single commodity at the given edge flow, relative to the
    cheapest path in [paths]. *)

val path_value :
  (Sgr_latency.Latency.t -> float -> float) ->
  Network.t ->
  float array ->
  Sgr_graph.Paths.t ->
  float
(** Sum of [value latency flow] along a path at the given edge flow. *)

val diff_edges : int list -> int list -> int list
(** [diff_edges a b] is the edges of [a] not in [b], preserving [a]'s
    order; membership in [b] is a binary search over a sorted copy. *)
