module G = Sgr_graph
module L = Sgr_latency.Latency
module Network = Sgr_network.Network
module Objective = Sgr_network.Objective
module Obs = Sgr_obs.Obs

type method_ = Frank_wolfe | Msa

let method_name = function Frank_wolfe -> "frank-wolfe" | Msa -> "msa"

type trace_point = { k : int; gap : float; objective : float; step : float }

type solution = {
  edge_flow : float array;
  iterations : int;
  relative_gap : float;
  objective : float;
  trace : trace_point list;
}

let c_iters = Obs.counter "assign.iterations"
let c_line_search = Obs.counter "assign.line_searches"
let c_exact = Obs.counter "assign.exact_steps"

(* Per-edge slope of the gradient when every edge's gradient is a line:
   ℓ_e = a_e·x + b_e gives a_e for the Beckmann potential and 2·a_e for
   total cost, (x·ℓ_e)' = 2·a_e·x + b_e. [None] as soon as one latency
   is not a line. *)
let gradient_slopes obj lats =
  let m = Array.length lats in
  let slopes = Array.make m 0.0 and intercepts = Array.make m 0.0 in
  let ok = ref true and e = ref 0 in
  let cancel = Sgr_obs.Cancel.handle () in
  while !ok && !e < m do
    Sgr_obs.Cancel.check_handle cancel;
    ok := L.reduce_into lats.(!e) ~slopes ~intercepts !e;
    incr e
  done;
  if not !ok then None
  else
    match (obj : Objective.t) with
    | Wardrop -> Some slopes
    | System_optimum -> Some (Array.map (fun a -> 2.0 *. a) slopes)

(* One pass over the direction d = y - f, kept implicit: the duality-gap
   numerator -∇·d, the normalizer ∇·f and, given the gradient slopes c,
   the curvature Σ c_e·d_e² of φ along d. *)
let direction_sums ~slopes ~grad ~f ~y =
  let gap = ref 0.0 and denom = ref 0.0 and curv = ref 0.0 in
  (match slopes with
  | None ->
      for e = 0 to Array.length f - 1 do
        gap := !gap -. (grad.(e) *. (y.(e) -. f.(e)));
        denom := !denom +. (grad.(e) *. f.(e))
      done
  | Some c ->
      for e = 0 to Array.length f - 1 do
        let de = y.(e) -. f.(e) in
        gap := !gap -. (grad.(e) *. de);
        denom := !denom +. (grad.(e) *. f.(e));
        curv := !curv +. (c.(e) *. de *. de)
      done);
  (!gap, !denom, !curv)

(* φ'(γ) = -gap + γ·curv is linear, so its root clamped to [0, 1] is
   the exact line-search step. *)
let line_step ~gap ~curv =
  if curv > 0.0 then Float.min 1.0 (Float.max 0.0 (gap /. curv))
  else if gap > 0.0 then 1.0
  else 0.0

let affine_step ~slopes ~grad ~flow ~target =
  let gap, _, curv = direction_sums ~slopes:(Some slopes) ~grad ~f:flow ~y:target in
  line_step ~gap ~curv

let solve_gen ?(tol = 1e-4) ?(max_iter = 10_000) ?(method_ = Frank_wolfe) ?jobs ~flows obj net
    =
  Obs.span "assign.solve" @@ fun () ->
  let m = G.Digraph.num_edges net.Network.graph in
  let value = Objective.edge_value obj in
  let lats = net.Network.latencies in
  let ks = net.Network.commodities in
  let plan = Aon.plan ?jobs net in
  let floor = Aon.weight_floor plan in
  (* The exact affine step replaces the bisection line search whenever
     every latency is a line; MSA has no line search. *)
  let slopes = match method_ with Msa -> None | Frank_wolfe -> gradient_slopes obj lats in
  let grad = Array.make m 0.0 in
  let y = Array.make m 0.0 in
  (* Per-commodity flow tracking (only when the caller wants a
     decomposable answer): every AON routes each commodity down one tree
     path, so the commodity split evolves by the same convex steps as
     the aggregate — x_i <- (1-γ)·x_i + γ·d_i·path_i. Recording never
     touches the aggregate iterates, so [solve] and [solve_flows]
     produce byte-identical [edge_flow]. *)
  let paths = Array.map (fun _ -> []) ks in
  let record =
    match flows with
    | None -> None
    | Some _ -> Some (fun ~commodity ~path -> paths.(commodity) <- path)
  in
  let update_flows gamma =
    match flows with
    | None -> ()
    | Some xs ->
        let scale = 1.0 -. gamma in
        Array.iteri
          (fun i x ->
            for e = 0 to m - 1 do
              x.(e) <- x.(e) *. scale
            done;
            let d = gamma *. ks.(i).Network.demand in
            List.iter (fun e -> x.(e) <- x.(e) +. d) paths.(i))
          xs
  in
  (* Clamp to the free-flow floor: a no-op in exact arithmetic, it
     absorbs the rounding of numerically differentiated marginals, keeps
     Dijkstra's weights nonnegative and the AON's A* potentials
     consistent. *)
  let fill_grad f =
    for e = 0 to m - 1 do
      grad.(e) <- Float.max floor.(e) (value lats.(e) f.(e))
    done
  in
  let f = Array.make m 0.0 in
  fill_grad f;
  Aon.assign ?jobs ?record plan net ~weights:grad ~into:f;
  update_flows 1.0;
  let iterations = ref 0 in
  let relgap = ref Float.infinity in
  let continue = ref true in
  let tracing = Obs.enabled () in
  let trace = ref [] in
  let cancel = Sgr_obs.Cancel.handle () in
  while !continue && !iterations < max_iter do
    Sgr_obs.Cancel.check_handle cancel;
    incr iterations;
    Obs.incr c_iters;
    fill_grad f;
    Aon.assign ?jobs ?record plan net ~weights:grad ~into:y;
    (* Relative duality gap of the linearized subproblem. *)
    let gap, denom, curv = direction_sums ~slopes ~grad ~f ~y in
    relgap := gap /. Float.max 1e-12 (Float.abs denom);
    let obj_now = if tracing then Objective.objective obj net f else 0.0 in
    let step =
      if !relgap <= tol then begin
        continue := false;
        0.0
      end
      else begin
        let gamma =
          match method_ with
          | Msa -> 1.0 /. float_of_int (!iterations + 1)
          | Frank_wolfe when Option.is_some slopes ->
              Obs.incr c_line_search;
              Obs.incr c_exact;
              let gamma = line_step ~gap ~curv in
              if gamma <= 0.0 then 1e-12 else gamma
          | Frank_wolfe ->
              Obs.incr c_line_search;
              (* Exact line search: the directional derivative of the
                 convex objective along d is nondecreasing in gamma. *)
              let dphi gamma =
                Sgr_obs.Cancel.check_handle cancel;
                let acc = ref 0.0 in
                for e = 0 to m - 1 do
                  let de = y.(e) -. f.(e) in
                  (* Exact test by design: exact zeros mark edges outside
                     the direction's support; a tolerance would silently
                     drop genuinely tiny components. *)
                  if (de <> 0.0) [@lint.allow "float-equality"] then
                    acc := !acc +. (de *. value lats.(e) (f.(e) +. (gamma *. de)))
                done;
                !acc
              in
              let gamma = Sgr_numerics.Minimize.line_search_convex ~df:dphi ~lo:0.0 ~hi:1.0 () in
              if gamma <= 0.0 then 1e-12 else gamma
        in
        for e = 0 to m - 1 do
          f.(e) <- f.(e) +. (gamma *. (y.(e) -. f.(e)));
          (* Clip negative rounding noise. *)
          if f.(e) < 0.0 then f.(e) <- 0.0
        done;
        update_flows gamma;
        gamma
      end
    in
    if tracing then begin
      let solver = "assign." ^ method_name method_ in
      Obs.point ~solver ~k:!iterations ~gap:!relgap ~objective:obj_now ~step;
      trace := { k = !iterations; gap = !relgap; objective = obj_now; step } :: !trace
    end
  done;
  {
    edge_flow = f;
    iterations = !iterations;
    relative_gap = !relgap;
    objective = Objective.objective obj net f;
    trace = List.rev !trace;
  }

let solve ?tol ?max_iter ?method_ ?jobs obj net =
  solve_gen ?tol ?max_iter ?method_ ?jobs ~flows:None obj net

let solve_flows ?tol ?max_iter ?method_ ?jobs obj net =
  let m = G.Digraph.num_edges net.Network.graph in
  let xs = Array.map (fun _ -> Array.make m 0.0) net.Network.commodities in
  let sol = solve_gen ?tol ?max_iter ?method_ ?jobs ~flows:(Some xs) obj net in
  (sol, xs)
