module Net = Sgr_network.Network
module Equilibrate = Sgr_network.Equilibrate
module Objective = Sgr_network.Objective
module Vec = Sgr_numerics.Vec

type outcome = {
  follower_edge_flow : float array;
  combined_edge_flow : float array;
  cost : float;
  wardrop_gap : float;
}

let equilibrium net ~leader_edge_flow ~follower_demands =
  Sgr_obs.Obs.span "induced.equilibrium" @@ fun () ->
  let g = net.Net.graph in
  if Array.length leader_edge_flow <> Sgr_graph.Digraph.num_edges g then
    invalid_arg "Induced.equilibrium: leader flow size mismatch";
  if Array.length follower_demands <> Array.length net.Net.commodities then
    invalid_arg "Induced.equilibrium: follower demand size mismatch";
  if not (Vec.all_nonneg ~eps:1e-9 leader_edge_flow) then
    invalid_arg "Induced.equilibrium: negative leader flow";
  if not (Vec.all_nonneg ~eps:1e-9 follower_demands) then
    invalid_arg "Induced.equilibrium: negative follower demand";
  let shifted = Net.shift net leader_edge_flow in
  (* [with_demands] skips [Network.make]'s per-commodity reachability
     Dijkstra — this call sits inside MOP's minimality sweeps. *)
  let shifted =
    Net.with_demands shifted (Array.map Sgr_numerics.Tolerance.clamp_nonneg follower_demands)
  in
  let sol = Equilibrate.solve Objective.Wardrop shifted in
  let combined = Vec.add leader_edge_flow sol.Equilibrate.edge_flow in
  {
    follower_edge_flow = sol.Equilibrate.edge_flow;
    combined_edge_flow = combined;
    cost = Net.cost net combined;
    wardrop_gap = sol.Equilibrate.gap;
  }

let cost_of_strategy net ~leader_edge_flow ~follower_demands =
  (equilibrium net ~leader_edge_flow ~follower_demands).cost
