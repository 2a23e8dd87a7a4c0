module Net = Sgr_network.Network
module Equilibrate = Sgr_network.Equilibrate
module Objective = Sgr_network.Objective
module G = Sgr_graph
module Vec = Sgr_numerics.Vec
module Tol = Sgr_numerics.Tolerance
module Obs = Sgr_obs.Obs

let c_runs = Obs.counter "mop.runs"

type commodity_report = {
  index : int;
  on_shortest : bool array;
  free_flow : float;
  controlled : float;
  leader_edge_flow : float array;
  leader_paths : (G.Paths.t * float) list;
  follower_paths : (G.Paths.t * float) list;
}

type result = {
  beta : float;
  beta_weak : float;
  leader_edge_flow : float array;
  follower_demands : float array;
  per_commodity : commodity_report array;
  opt_edge_flow : float array;
  opt_cost : float;
  nash_cost : float;
  induced : Induced.outcome;
}

let per_commodity_edge_flows net (sol : Equilibrate.solution) =
  let m = G.Digraph.num_edges net.Net.graph in
  Array.mapi
    (fun i flows ->
      let edge = Array.make m 0.0 in
      Array.iteri
        (fun j amount -> List.iter (fun e -> edge.(e) <- edge.(e) +. amount) sol.paths.(i).(j))
        flows;
      edge)
    sol.path_flows

let run net =
  Obs.incr c_runs;
  Obs.span "mop.solve" @@ fun () ->
  let g = net.Net.graph in
  let m = G.Digraph.num_edges g in
  let k = Array.length net.Net.commodities in
  (* Step 1: the optimum and the edge costs it induces. *)
  let opt_sol = Obs.span "mop.optimum" (fun () -> Equilibrate.solve Objective.System_optimum net) in
  let opt_edge_flow = opt_sol.edge_flow in
  let weights = Net.edge_latencies net opt_edge_flow in
  let commodity_flows = per_commodity_edge_flows net opt_sol in
  (* Steps 2–5 per commodity. *)
  let per_commodity =
    Array.init k (fun i ->
        Obs.span "mop.commodity" @@ fun () ->
        (* Deadline checkpoint between commodities; the equilibrium
           solves above and below checkpoint per sweep/round. *)
        Sgr_obs.Cancel.check ();
        let c = net.Net.commodities.(i) in
        (* The shortest-path slack must dominate the solver's gap (1e-9). *)
        let on_shortest =
          Obs.span "mop.subgraph" (fun () ->
              G.Dijkstra.shortest_edge_subgraph ~eps:1e-6 g ~weights ~src:c.Net.src ~dst:c.Net.dst)
        in
        (* Free flow: max flow inside the shortest subgraph, capacitated by
           this commodity's optimal edge flow (footnote 5). *)
        let capacities =
          Array.init m (fun e -> if on_shortest.(e) then commodity_flows.(i).(e) else 0.0)
        in
        let mf =
          Obs.span "mop.maxflow" (fun () ->
              G.Maxflow.solve g ~capacities ~src:c.Net.src ~dst:c.Net.dst)
        in
        let free_flow = Float.min mf.value c.Net.demand in
        let leader_edge_flow =
          Array.init m (fun e -> Tol.clamp_nonneg (commodity_flows.(i).(e) -. mf.flow.(e)))
        in
        let leader_paths =
          Obs.span "mop.decompose" (fun () ->
              G.Flow.decompose g ~flow:leader_edge_flow ~src:c.Net.src ~dst:c.Net.dst)
        in
        let follower_paths =
          Obs.span "mop.decompose" (fun () ->
              G.Flow.decompose g ~flow:mf.flow ~src:c.Net.src ~dst:c.Net.dst)
        in
        {
          index = i;
          on_shortest;
          free_flow;
          controlled = Tol.clamp_nonneg (c.Net.demand -. free_flow);
          leader_edge_flow;
          leader_paths;
          follower_paths;
        })
  in
  let leader_edge_flow = Array.make m 0.0 in
  Array.iter
    (fun (rep : commodity_report) -> Vec.axpy 1.0 rep.leader_edge_flow leader_edge_flow)
    per_commodity;
  let follower_demands = Array.map (fun rep -> rep.free_flow) per_commodity in
  let total = Net.total_demand net in
  let controlled = Array.fold_left (fun acc rep -> acc +. rep.controlled) 0.0 per_commodity in
  let beta = if total > 0.0 then controlled /. total else 0.0 in
  let beta_weak =
    Array.fold_left
      (fun acc (rep : commodity_report) ->
        let r_i = net.Net.commodities.(rep.index).Net.demand in
        if r_i > 0.0 then Float.max acc (rep.controlled /. r_i) else acc)
      0.0 per_commodity
  in
  let opt_cost = Net.cost net opt_edge_flow in
  let nash_sol = Obs.span "mop.nash" (fun () -> Equilibrate.solve Objective.Wardrop net) in
  let nash_cost = Net.cost net nash_sol.edge_flow in
  let induced = Induced.equilibrium net ~leader_edge_flow ~follower_demands in
  {
    beta;
    beta_weak;
    leader_edge_flow;
    follower_demands;
    per_commodity;
    opt_edge_flow;
    opt_cost;
    nash_cost;
    induced;
  }

let beta net = (run net).beta

let verify_minimality net result =
  let ok = ref true in
  Array.iteri
    (fun i (rep : commodity_report) ->
      List.iter
        (fun (path, amount) ->
          if amount > 1e-6 then begin
            let release = Float.max 1e-3 (0.05 *. amount) in
            let release = Float.min release amount in
            (* Cap at the bottleneck leader flow along the path: releasing
               more than some edge carries would be absorbed by the
               nonnegativity clamp on that edge only, leaving a perturbed
               leader flow that is not a reroute of this path. *)
            let bottleneck =
              List.fold_left
                (fun acc e -> Float.min acc result.leader_edge_flow.(e))
                Float.infinity path
            in
            let release = Float.min release bottleneck in
            if release > 1e-9 then begin
              (* Hand [release] units of this Leader path back to the
                 Followers of commodity i. *)
              let leader = Array.copy result.leader_edge_flow in
              List.iter (fun e -> leader.(e) <- Tol.clamp_nonneg (leader.(e) -. release)) path;
              let follower_demands = Array.copy result.follower_demands in
              follower_demands.(i) <- follower_demands.(i) +. release;
              let outcome =
                Induced.equilibrium net ~leader_edge_flow:leader ~follower_demands
              in
              if
                outcome.Induced.cost <= result.opt_cost +. (1e-7 *. Float.max 1.0 result.opt_cost)
              then ok := false
            end
          end)
        rep.leader_paths)
    result.per_commodity;
  !ok
