module Links = Sgr_links.Links
module L = Sgr_latency.Latency
module Tol = Sgr_numerics.Tolerance
module Minimize = Sgr_numerics.Minimize

type candidate = { i0 : int; epsilon : float; cost : float }

type result = {
  strategy : float array;
  induced_cost : float;
  predicted_cost : float;
  best : candidate;
  candidates : candidate list;
}

let slope_intercept lat =
  match L.kind lat with
  | L.Affine { slope; intercept } -> Some (slope, intercept)
  | L.Constant c -> Some (0.0, c)
  | _ -> None

let is_common_slope ?(eps = 1e-12) instance =
  let params = Array.map slope_intercept instance.Links.latencies in
  Array.for_all Option.is_some params
  &&
  match params.(0) with
  | Some (a0, _) ->
      a0 > 0.0
      && Array.for_all
           (function Some (a, _) -> Float.abs (a -. a0) <= eps *. Float.max 1.0 a0 | None -> false)
           params
  | None -> false

(* Seed points of the convex search in [ε]. *)
let grid = 64

let solve instance ~alpha =
  if not (0.0 <= alpha && alpha <= 1.0) then
    invalid_arg "Linear_exact.solve: alpha must be in [0, 1]";
  if not (is_common_slope instance) then
    invalid_arg "Linear_exact.solve: latencies must share one positive slope";
  let m = Links.num_links instance in
  let r = instance.Links.demand in
  let budget = alpha *. r in
  let intercept i = snd (Option.get (slope_intercept instance.Links.latencies.(i))) in
  let order = Array.init m (fun i -> i) in
  Array.sort (fun i j -> compare (intercept i, i) (intercept j, j)) order;
  let sorted_lats = Array.map (fun i -> instance.Links.latencies.(i)) order in
  let tiny = 1e-10 *. Float.max 1.0 r in
  (* Induced cost of the candidate (i0, eps): prefix links settle at the
     Nash of (1-alpha)r + eps, suffix links are frozen at the optimum of
     budget - eps. None when infeasible. Also returns the data needed to
     rebuild the Leader strategy. *)
  let evaluate i0 eps =
    let prefix = Array.sub sorted_lats 0 i0 in
    let prefix_inst = Links.make prefix ~demand:(((1.0 -. alpha) *. r) +. eps) in
    let pn = Links.nash prefix_inst in
    let all_loaded = Array.for_all (fun x -> x > tiny) pn.assignment in
    if not all_loaded then None
    else if i0 = m then
      Some (Links.cost prefix_inst pn.assignment, pn, None)
    else begin
      let suffix = Array.sub sorted_lats i0 (m - i0) in
      let suffix_inst = Links.make suffix ~demand:(Tol.clamp_nonneg (budget -. eps)) in
      let so = Links.opt suffix_inst in
      let min_suffix_latency =
        Array.mapi (fun j x -> L.eval suffix.(j) x) so.assignment
        |> Array.fold_left Float.min Float.infinity
      in
      if pn.level <= min_suffix_latency +. (Tol.check_eps *. Float.max 1.0 pn.level) then
        Some (Links.cost prefix_inst pn.assignment +. Links.cost suffix_inst so.assignment, pn, Some so)
      else None
    end
  in
  let cost_only i0 eps =
    match evaluate i0 eps with Some (c, _, _) -> c | None -> Float.infinity
  in
  (* Feasible eps values form an interval (loading constraint is monotone
     increasing in eps, the latency constraint monotone decreasing); locate
     it from a feasible grid point and refine its edges by bisection. *)
  let feasible i0 eps = Option.is_some (evaluate i0 eps) in
  let feasible_interval i0 =
    if i0 = m then if feasible m budget then Some (budget, budget) else None
    else begin
      let points = List.init (grid + 1) (fun k -> budget *. float_of_int k /. float_of_int grid) in
      match List.find_opt (feasible i0) points with
      | None -> None
      | Some seed ->
          let edge ~ok ~bad =
            (* Invariant: [ok] feasible, [bad] infeasible (or equal). *)
            let ok = ref ok and bad = ref bad in
            for _ = 1 to 60 do
              let mid = 0.5 *. (!ok +. !bad) in
              if feasible i0 mid then ok := mid else bad := mid
            done;
            !ok
          in
          let lo = if feasible i0 0.0 then 0.0 else edge ~ok:seed ~bad:0.0 in
          let hi = if feasible i0 budget then budget else edge ~ok:seed ~bad:budget in
          Some (lo, hi)
    end
  in
  let candidates =
    List.filter_map
      (fun i0 ->
        (* Each candidate prefix runs a golden-section search over full
           water-filling solves; checkpoint between candidates so a
           deadline cuts the sweep, not just the inner loops. *)
        Sgr_obs.Cancel.check ();
        match feasible_interval i0 with
        | None -> None
        | Some (lo, hi) ->
            let epsilon, cost =
              if hi -. lo <= 1e-14 then (lo, cost_only i0 lo)
              else Minimize.golden ~f:(cost_only i0) ~lo ~hi ()
            in
            Some { i0; epsilon; cost })
      (List.init m (fun k -> k + 1))
  in
  (* Theorem 2.4 guarantees a feasible partition exists; reaching this
     is a solver bug, and the message says so. *)
  if candidates = [] then
    (failwith "Linear_exact.solve: no feasible partition (internal error)")
    [@lint.allow "no-untyped-failure"];
  let best =
    List.fold_left (fun acc c -> if c.cost < acc.cost then c else acc) (List.hd candidates)
      (List.tl candidates)
  in
  (* Rebuild the Leader strategy for the best candidate. *)
  let strategy = Array.make m 0.0 in
  let predicted_cost =
    match evaluate best.i0 best.epsilon with
    (* [best] came from [feasible_interval], so re-evaluating it at its
       own epsilon cannot fail. *)
    | None -> (assert false) [@lint.allow "no-untyped-failure"]
    | Some (cost, pn, so) ->
        let prefix_total = ((1.0 -. alpha) *. r) +. best.epsilon in
        Array.iteri
          (fun j x ->
            if prefix_total > 0.0 then
              strategy.(order.(j)) <- best.epsilon *. x /. prefix_total)
          pn.assignment;
        (match so with
        | None -> ()
        | Some so ->
            Array.iteri (fun j x -> strategy.(order.(best.i0 + j)) <- x) so.assignment);
        cost
  in
  let induced_cost = Links.stackelberg_cost instance ~strategy in
  { strategy; induced_cost; predicted_cost; best; candidates }
