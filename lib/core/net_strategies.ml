module Net = Sgr_network.Network
module Eq = Sgr_network.Equilibrate
module Obj = Sgr_network.Objective
module G = Sgr_graph
module Vec = Sgr_numerics.Vec

type outcome = {
  leader_edge_flow : float array;
  induced : Induced.outcome;
  ratio_to_opt : float;
}

let check_alpha alpha =
  if not (0.0 <= alpha && alpha <= 1.0) then invalid_arg "Net_strategies: alpha must be in [0, 1]"

let finish net ~leader_edge_flow ~follower_demands =
  let induced = Induced.equilibrium net ~leader_edge_flow ~follower_demands in
  let opt = Eq.solve Obj.System_optimum net in
  let opt_cost = Net.cost net opt.edge_flow in
  let ratio_to_opt = Alpha_sweep.ratio_of ~opt_cost induced.Induced.cost in
  { leader_edge_flow; induced; ratio_to_opt }

let scale net ~alpha =
  check_alpha alpha;
  let opt = Eq.solve Obj.System_optimum net in
  let leader_edge_flow = Vec.scale alpha opt.edge_flow in
  let follower_demands = Array.map (fun c -> (1.0 -. alpha) *. c.Net.demand) net.Net.commodities in
  finish net ~leader_edge_flow ~follower_demands

let llf net ~alpha =
  check_alpha alpha;
  let opt = Eq.solve Obj.System_optimum net in
  let costs = Net.edge_latencies net opt.edge_flow in
  let m = G.Digraph.num_edges net.Net.graph in
  let leader_edge_flow = Array.make m 0.0 in
  let follower_demands =
    Array.mapi
      (fun i c ->
        (* Saturate this commodity's optimal paths from the slowest down. *)
        let paths = opt.Eq.paths.(i) in
        let flows = opt.Eq.path_flows.(i) in
        let order = Array.init (Array.length paths) (fun j -> j) in
        let latency j = G.Paths.cost paths.(j) costs in
        Array.sort (fun a b -> compare (latency b, a) (latency a, b)) order;
        let budget = ref (alpha *. c.Net.demand) in
        Array.iter
          (fun j ->
            let take = Float.min !budget flows.(j) in
            if take > 0.0 then begin
              List.iter (fun e -> leader_edge_flow.(e) <- leader_edge_flow.(e) +. take) paths.(j);
              budget := !budget -. take
            end)
          order;
        (* Whatever part of the budget exceeds the optimal flow total stays
           unused; followers route the rest of the demand. *)
        (1.0 -. alpha) *. c.Net.demand +. !budget)
      net.Net.commodities
  in
  finish net ~leader_edge_flow ~follower_demands

let aloof net =
  let m = G.Digraph.num_edges net.Net.graph in
  let follower_demands = Array.map (fun c -> c.Net.demand) net.Net.commodities in
  finish net ~leader_edge_flow:(Array.make m 0.0) ~follower_demands
