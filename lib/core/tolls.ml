module Links = Sgr_links.Links
module Net = Sgr_network.Network
module Eq = Sgr_network.Equilibrate
module Obj = Sgr_network.Objective
module L = Sgr_latency.Latency

(* Tolls are first-class constant latency shifts now: [L.shift_intercept]
   keeps affine/constant/polynomial latencies in closed form (so the
   solvers keep their fast inverses and the closed-form links engine its
   reduction) and wraps the rest. Marginal-cost tolls are nonnegative by
   construction, but guard anyway so a denormal negative product cannot
   reach the constructor. *)
let add_toll_exact lat toll = if toll <= 0.0 then lat else L.shift_intercept toll lat

let links_tolls instance =
  let opt = (Links.opt instance).assignment in
  Array.mapi (fun i o -> o *. L.deriv instance.Links.latencies.(i) o) opt

let tolled_links instance =
  let tolls = links_tolls instance in
  let latencies = Array.mapi (fun i lat -> add_toll_exact lat tolls.(i)) instance.Links.latencies in
  Links.make latencies ~demand:instance.Links.demand

let links_outcome instance =
  let tolled = tolled_links instance in
  let eq = (Links.nash tolled).assignment in
  (eq, Links.cost instance eq)

let network_tolls net =
  let opt = (Eq.solve Obj.System_optimum net).Eq.edge_flow in
  Array.mapi (fun e o -> o *. L.deriv net.Net.latencies.(e) o) opt

let tolled_network net =
  let tolls = network_tolls net in
  let latencies = Array.mapi (fun e lat -> add_toll_exact lat tolls.(e)) net.Net.latencies in
  Net.make net.Net.graph ~latencies ~commodities:net.Net.commodities

let network_outcome net =
  let tolled = tolled_network net in
  let eq = (Eq.solve Obj.Wardrop tolled).Eq.edge_flow in
  (eq, Net.cost net eq)
