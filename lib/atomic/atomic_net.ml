module Net = Sgr_network.Network
module Eq = Sgr_network.Equilibrate
module Obj = Sgr_network.Objective
module L = Sgr_latency.Latency
module G = Sgr_graph
module Vec = Sgr_numerics.Vec
module Tol = Sgr_numerics.Tolerance

type t = { network : Net.t }
type profile = float array array

let make network =
  if Array.length network.Net.commodities = 0 then invalid_arg "Atomic_net.make: no commodities";
  { network }

let replicate network ~players =
  if players < 1 then invalid_arg "Atomic_net.replicate: need at least one player";
  match network.Net.commodities with
  | [| c |] ->
      let share = c.Net.demand /. float_of_int players in
      make (Net.with_commodities network (Array.make players { c with Net.demand = share }))
  | _ -> invalid_arg "Atomic_net.replicate: network must have exactly one commodity"

let num_edges t = G.Digraph.num_edges t.network.Net.graph
let num_players t = Array.length t.network.Net.commodities

let total_load t profile =
  let load = Array.make (num_edges t) 0.0 in
  Array.iter (fun x -> Vec.axpy 1.0 x load) profile;
  load

let social_cost t profile = Net.cost t.network (total_load t profile)

let player_cost t profile k =
  let load = total_load t profile in
  let acc = ref 0.0 in
  Array.iteri
    (fun e load_e -> acc := !acc +. (profile.(k).(e) *. L.eval t.network.Net.latencies.(e) load_e))
    load;
  !acc

(* Best response = system optimum of the others-shifted network,
   restricted to player k's own commodity. *)
let best_response t profile ~player =
  let others = Array.make (num_edges t) 0.0 in
  Array.iteri (fun k x -> if k <> player then Vec.axpy 1.0 x others) profile;
  for e = 0 to num_edges t - 1 do
    others.(e) <- Tol.clamp_nonneg others.(e)
  done;
  let shifted = Net.shift t.network others in
  let solo = Net.with_commodities shifted [| t.network.Net.commodities.(player) |] in
  (Eq.solve Obj.System_optimum solo).Eq.edge_flow

let equilibrium t =
  let m = num_edges t and n = num_players t in
  let profile = Array.init n (fun _ -> Array.make m 0.0) in
  let rounds = ref 0 in
  let moved = ref Float.infinity in
  while !moved > 1e-8 && !rounds < 2_000 do
    incr rounds;
    moved := 0.0;
    for k = 0 to n - 1 do
      let br = best_response t profile ~player:k in
      moved := Float.max !moved (Vec.linf_dist br profile.(k));
      profile.(k) <- br
    done
  done;
  (profile, !rounds)

let is_equilibrium ?(eps = 1e-5) t profile =
  let n = num_players t in
  let ok = ref true in
  for k = 0 to n - 1 do
    let current = player_cost t profile k in
    let br = best_response t profile ~player:k in
    let trial = Array.map Array.copy profile in
    trial.(k) <- br;
    let best = player_cost t trial k in
    if current > best +. (eps *. Float.max 1.0 (Float.abs best)) then ok := false
  done;
  !ok
