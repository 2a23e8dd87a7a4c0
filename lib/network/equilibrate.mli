(** Path-equilibration front end.

    Repeatedly moves flow from the costliest {e used} path to the
    cheapest path of each commodity, equalizing the pair by bisection on
    the shifted amount (only the symmetric difference of the two paths
    matters). Each shift strictly decreases the convex objective, so the
    sweep converges; the stopping rule is the Wardrop gap itself.

    {!solve} prices paths on demand with Dijkstra ({!Column_gen}) and
    keeps only a small active column set per commodity, so it scales
    to networks whose simple-path count is exponential (e.g. large
    grids). {!exhaustive} enumerates every simple path up front via
    {!Network.paths} and is kept as an oracle for cross-checking on
    small instances; it inherits {!Sgr_graph.Paths.enumerate}'s
    20,000-path cap. *)

(** Both solvers return {!Column_gen.solution}; see there for the fields. *)
type solution = Column_gen.solution = {
  edge_flow : float array;
  path_flows : float array array;
  paths : Sgr_graph.Paths.t array array;
  sweeps : int;
  gap : float;
}

val solve : Objective.t -> Network.t -> solution
(** [solve obj net] runs column generation ({!Column_gen.solve}) until
    [gap <= 1e-9] or [200_000] sweeps. *)

val exhaustive : Objective.t -> Network.t -> solution
(** The enumeration oracle: {!Column_gen.solve_on_paths} over every
    simple path of [net], to the same gap and sweep budget as {!solve}.
    @raise Failure past {!Sgr_graph.Paths.enumerate}'s path cap. *)

val verify :
  ?eps:float -> Objective.t -> Network.t -> solution -> bool
(** Post-hoc Wardrop/optimality check: every used path's cost is within
    [eps] of its commodity's minimum path cost {e over the solution's
    path set}. *)

val commodity_gap :
  Objective.t -> Network.t -> edge_flow:float array ->
  paths:Sgr_graph.Paths.t array -> flows:float array -> float
(** Gap of a single commodity at the given edge flow. *)
