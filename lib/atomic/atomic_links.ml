module L = Sgr_latency.Latency
module Links = Sgr_links.Links
module Vec = Sgr_numerics.Vec
module Tol = Sgr_numerics.Tolerance

type t = { latencies : L.t array; demands : float array }
type profile = float array array

let make latencies ~demands =
  if Array.length latencies = 0 then invalid_arg "Atomic_links.make: no links";
  if Array.length demands = 0 then invalid_arg "Atomic_links.make: no players";
  if Array.exists (fun d -> d < 0.0) demands then
    invalid_arg "Atomic_links.make: negative demand";
  { latencies; demands }

let split_evenly latencies ~total ~players =
  if players <= 0 then invalid_arg "Atomic_links.split_evenly: need at least one player";
  if total < 0.0 then invalid_arg "Atomic_links.split_evenly: negative total";
  make latencies ~demands:(Array.make players (total /. float_of_int players))

let num_links t = Array.length t.latencies
let num_players t = Array.length t.demands

let total_load t profile =
  let load = Array.make (num_links t) 0.0 in
  Array.iter (fun x -> Vec.axpy 1.0 x load) profile;
  ignore t;
  load

let social_cost t profile =
  let load = total_load t profile in
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. L.cost t.latencies.(i) x) load;
  !acc

let player_cost t profile k =
  let load = total_load t profile in
  let acc = ref 0.0 in
  Array.iteri
    (fun i load_i -> acc := !acc +. (profile.(k).(i) *. L.eval t.latencies.(i) load_i))
    load;
  !acc

(* The best response to others' loads [o] minimizes Σ x_i·ℓ_i(o_i + x_i):
   exactly the system optimum of the o-shifted instance, so the
   water-filling optimum solver applies verbatim. *)
let best_response t profile ~player =
  let others = Array.make (num_links t) 0.0 in
  Array.iteri (fun k x -> if k <> player then Vec.axpy 1.0 x others) profile;
  let shifted = Array.mapi (fun i lat -> L.shift (Tol.clamp_nonneg others.(i)) lat) t.latencies in
  (Links.opt (Links.make shifted ~demand:t.demands.(player))).assignment

let equilibrium t =
  let m = num_links t and n = num_players t in
  let profile = Array.init n (fun _ -> Array.make m 0.0) in
  let rounds = ref 0 in
  let moved = ref Float.infinity in
  while !moved > 1e-9 && !rounds < 10_000 do
    incr rounds;
    moved := 0.0;
    for k = 0 to n - 1 do
      let br = best_response t profile ~player:k in
      moved := Float.max !moved (Vec.linf_dist br profile.(k));
      profile.(k) <- br
    done
  done;
  (profile, !rounds)

let is_equilibrium ?(eps = Tol.check_eps) t profile =
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
