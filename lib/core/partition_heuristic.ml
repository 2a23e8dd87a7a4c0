module Links = Sgr_links.Links
module L = Sgr_latency.Latency
module Tol = Sgr_numerics.Tolerance
module Minimize = Sgr_numerics.Minimize
module Vec = Sgr_numerics.Vec

type result = { strategy : float array; induced_cost : float; i0 : int; epsilon : float }

(* Seed points of the inner ε-search. *)
let grid = 64

let solve instance ~alpha =
  if not (0.0 <= alpha && alpha <= 1.0) then
    invalid_arg "Partition_heuristic.solve: alpha must be in [0, 1]";
  let m = Links.num_links instance in
  let r = instance.Links.demand in
  let budget = alpha *. r in
  (* Order by free-flow latency: the generalization of the intercept
     order Lemma 6.1 justifies in the linear case. *)
  let order = Array.init m (fun i -> i) in
  let zero_lat i = L.eval instance.Links.latencies.(i) 0.0 in
  Array.sort (fun i j -> compare (zero_lat i, i) (zero_lat j, j)) order;
  let sorted_lats = Array.map (fun i -> instance.Links.latencies.(i)) order in
  let tiny = 1e-10 *. Float.max 1.0 r in
  (* Build the candidate strategy for a split (i0, eps) and price it via
     the real induced game; None when the configuration is incoherent
     (an unloaded prefix link or Followers that would invade the suffix). *)
  let strategy_of_nash i0 eps (pn : Links.solution) =
    if not (Array.for_all (fun x -> x > tiny) pn.assignment) then None
    else begin
      let strategy = Array.make m 0.0 in
      let prefix_total = ((1.0 -. alpha) *. r) +. eps in
      Array.iteri
        (fun j x ->
          if prefix_total > 0.0 then strategy.(order.(j)) <- eps *. x /. prefix_total)
        pn.assignment;
      let feasible =
        if i0 = m then true
        else begin
          let suffix = Array.sub sorted_lats i0 (m - i0) in
          (* An overloaded M/M/1 suffix is refused by [Links.make]; a
             solver that cannot reach the demand fails: either way the
             split is infeasible. *)
          match Links.opt (Links.make suffix ~demand:(Tol.clamp_nonneg (budget -. eps))) with
          | exception (Failure _ | Invalid_argument _) -> false
          | so ->
              Array.iteri (fun j x -> strategy.(order.(i0 + j)) <- x) so.assignment;
              let min_suffix_latency =
                Array.mapi (fun j x -> L.eval suffix.(j) x) so.assignment
                |> Array.fold_left Float.min Float.infinity
              in
              pn.level <= min_suffix_latency +. (Tol.check_eps *. Float.max 1.0 pn.level)
        end
      in
      if feasible then Some strategy else None
    end
  in
  let strategy_of i0 eps =
    let prefix = Array.sub sorted_lats 0 i0 in
    (* Bounded-capacity prefixes (e.g. M/M/1 subsystems) may be unable to
       absorb the Followers at all — [Links.make] refuses them: that
       split is simply infeasible. *)
    match Links.nash (Links.make prefix ~demand:(((1.0 -. alpha) *. r) +. eps)) with
    | exception (Failure _ | Invalid_argument _) -> None
    | pn -> strategy_of_nash i0 eps pn
  in
  let cost_of i0 eps =
    match strategy_of i0 eps with
    | None -> Float.infinity
    | Some strategy -> Links.stackelberg_cost instance ~strategy
  in
  (* Baseline: the useless proportional strategy (cost C(N)). *)
  let nash = Links.nash instance in
  let baseline_strategy =
    if r > 0.0 then Vec.scale (budget /. r) nash.assignment else Array.make m 0.0
  in
  let best = ref (m, budget, Links.stackelberg_cost instance ~strategy:baseline_strategy) in
  let best_strategy = ref baseline_strategy in
  for i0 = 1 to m do
    (* Seed the inner search on a grid, then refine around the best seed
       with golden section (the cost is unimodal in the linear class;
       elsewhere the grid guards against local dips). *)
    let seeds = List.init (grid + 1) (fun k -> budget *. float_of_int k /. float_of_int grid) in
    let seed_best =
      List.fold_left
        (fun acc eps ->
          let c = cost_of i0 eps in
          match acc with Some (_, c') when c' <= c -> acc | _ -> Some (eps, c))
        None seeds
    in
    match seed_best with
    | None -> ()
    | Some (_, c) when c = Float.infinity -> ()
    | Some (seed, _) ->
        let step = if grid > 0 then budget /. float_of_int grid else 0.0 in
        let lo = Float.max 0.0 (seed -. step) and hi = Float.min budget (seed +. step) in
        let eps, cost =
          if hi -. lo <= 1e-14 then (seed, cost_of i0 seed)
          else Minimize.golden ~f:(cost_of i0) ~lo ~hi ()
        in
        let _, _, best_cost = !best in
        if cost < best_cost then begin
          match strategy_of i0 eps with
          | Some strategy ->
              best := (i0, eps, cost);
              best_strategy := strategy
          | None -> ()
        end
  done;
  let i0, epsilon, induced_cost = !best in
  { strategy = !best_strategy; induced_cost; i0; epsilon }
