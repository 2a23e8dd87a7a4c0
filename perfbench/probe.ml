(* Per-layer timings of the edge-flow core, taken by calling each
   layer's public entry point at a converged Wardrop flow. *)

module Network = Sgr_network.Network
module Objective = Sgr_network.Objective
module Solver = Sgr_assign.Solver
module Aon = Sgr_assign.Aon
module Dijkstra = Sgr_graph.Dijkstra
module Obs = Sgr_obs.Obs

let ms s = 1e3 *. s

(* The Dijkstra fan-out of a solve: min(nproc, trees per Aon call). *)
let jobs_for net = max 1 (min (Domain.recommended_domain_count ()) (Aon.num_trees (Aon.plan net)))

(* The fan-out of a timed solve leaves one core to the host: on a small
   shared machine a domain on every core times the scheduler as much as
   the solver (about twice the solve-to-solve spread on 2 vCPUs). *)
let timed_jobs net = max 1 (min (Domain.recommended_domain_count () - 1) (Aon.num_trees (Aon.plan net)))

(* [assign_layer ~jobs net flow] times one gradient fill, one Aon plan,
   one Aon call (at [jobs] and at 1), one Dijkstra tree and one exact
   line search, all at edge flow [flow]. *)
let assign_layer ~jobs (net : Network.t) flow =
  let g = net.Network.graph in
  let m = Sgr_graph.Digraph.num_edges g in
  let lats = net.Network.latencies in
  let value = Objective.edge_value Objective.Wardrop in
  let grad = Array.make m 0.0 in
  let fill () =
    for e = 0 to m - 1 do
      grad.(e) <- Float.max 0.0 (value lats.(e) flow.(e))
    done
  in
  let fill_s = Util.median_time ~inner:20 ~reps:11 fill in
  fill ();
  let plan_s = Util.median_time ~inner:20 ~reps:11 (fun () -> Aon.plan net) in
  let plan = Aon.plan net in
  let trees = Aon.num_trees plan in
  let y = Array.make m 0.0 in
  let aon jobs () = Aon.assign ~jobs plan net ~weights:grad ~into:y in
  let aon_s = Util.median_time ~reps:9 (aon jobs) in
  let aon1_s = Util.median_time ~reps:9 (aon 1) in
  let before = Obs.counters () in
  aon 1 ();
  let relaxations = Util.counter_delta before (Obs.counters ()) "dijkstra.relaxations" in
  let ws = Dijkstra.workspace () in
  let source = net.Network.commodities.(0).Network.src in
  let tree_s =
    Util.median_time ~reps:15 (fun () -> Dijkstra.run ~workspace:ws g ~weights:grad ~source)
  in
  (* The solver's exact line search along the AON direction y - flow. *)
  let probes = ref 0 in
  let dphi gamma =
    incr probes;
    let acc = ref 0.0 in
    for e = 0 to m - 1 do
      let de = y.(e) -. flow.(e) in
      if de <> 0.0 then acc := !acc +. (de *. value lats.(e) (flow.(e) +. (gamma *. de)))
    done;
    !acc
  in
  let search () = Sgr_numerics.Minimize.line_search_convex ~df:dphi ~lo:0.0 ~hi:1.0 () in
  let line_s = Util.median_time ~reps:11 search in
  probes := 0;
  ignore (search ());
  [
    ("aon.call_ms", ms aon_s);
    ("aon.call_ms_jobs1", ms aon1_s);
    ("aon.jobs_speedup", aon1_s /. aon_s);
    ("aon.plan_ms", ms plan_s);
    ("dijkstra.tree_ms", ms tree_s);
    ("dijkstra.relaxed_frac", float_of_int relaxations /. float_of_int (trees * m));
    ("line_search.call_ms", ms line_s);
    ("line_search.probes_per_call", float_of_int !probes);
    ("grad.fill_ms", ms fill_s);
  ]

(* Flow conservation at every node, relative to the total demand. *)
let conservation_error (net : Network.t) flow =
  let g = net.Network.graph in
  let bal = Array.make (Sgr_graph.Digraph.num_nodes g) 0.0 in
  let srcs = Sgr_graph.Digraph.edge_sources g and dsts = Sgr_graph.Digraph.edge_targets g in
  Array.iteri
    (fun e f ->
      bal.(srcs.(e)) <- bal.(srcs.(e)) -. f;
      bal.(dsts.(e)) <- bal.(dsts.(e)) +. f)
    flow;
  Array.iter
    (fun (c : Network.commodity) ->
      bal.(c.Network.src) <- bal.(c.Network.src) +. c.Network.demand;
      bal.(c.Network.dst) <- bal.(c.Network.dst) -. c.Network.demand)
    net.Network.commodities;
  Array.fold_left (fun acc b -> Float.max acc (Float.abs b)) 0.0 bal
  /. Float.max 1e-12 (Network.total_demand net)

let tol = 1e-4

(* Checks of one solve: the requested gap, conservation at every node,
   nonnegative finite flows and, when [expect] is given, a bit-identical
   edge flow. Returns the digest and the failed checks. *)
let check_solution ?expect (net : Network.t) (sol : Solver.solution) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if not (sol.Solver.relative_gap <= tol) then
    err "relative gap %g > %g after %d iterations" sol.relative_gap tol sol.iterations;
  if not (Array.for_all (fun f -> Float.is_finite f && f >= 0.0) sol.edge_flow) then
    err "negative or non-finite edge flow";
  let cons = conservation_error net sol.edge_flow in
  if not (cons <= 1e-9) then err "flow conservation off by %g of the demand" cons;
  let d = Util.digest sol.edge_flow in
  (match expect with
  | Some e when not (String.equal e d) -> err "edge_flow digest %s, expected %s" d e
  | _ -> ());
  (d, List.rev !errs)

(* {1 Counters and spans of a traced pass} *)

(* Per-layer count metrics and the [Obs] counter each is the delta of. *)
let counted =
  [
    ("aon.calls", "assign.aon_calls");
    ("aon.trees", "assign.dijkstra_trees");
    ("dijkstra.relaxations", "dijkstra.relaxations");
    ("latency.evaluations", "latency.evaluations");
    ("bisection.iterations", "bisection.iterations");
    ("pool.batches", "pool.batches");
    ("pool.tasks", "pool.tasks");
    ("links.closed_form.calls", "links.closed_form.calls");
    ("links.closed_form.fallbacks", "links.closed_form.fallbacks");
    ("column_gen.pricing_rounds", "column_gen.pricing_rounds");
    ("column_gen.columns", "column_gen.columns");
    ("equilibrate.sweeps", "equilibrate.sweeps");
    ("maxflow.runs", "maxflow.runs");
    ("optop.rounds", "optop.rounds");
    ("mop.runs", "mop.runs");
  ]

let counter_metrics before after =
  List.map
    (fun (metric, counter) -> (metric, float_of_int (Util.counter_delta before after counter)))
    counted

(* Shares of the traced solve wall spent in Aon calls and line
   searches: calls × one call's time ÷ the [assign.solve] span total. *)
let shares ~solve_s ~aon_calls ~aon_ms ~line_searches ~line_ms =
  let share n t = if solve_s > 0.0 then float_of_int n *. t /. (1e3 *. solve_s) else 0.0 in
  [ ("aon.share", share aon_calls aon_ms); ("line_search.share", share line_searches line_ms) ]

let span_total agg name =
  match List.assoc_opt name (Obs.Agg.span_totals agg) with Some (_, s) -> s | None -> 0.0

let spans_json agg =
  Util.Obj
    (List.map
       (fun (name, (n, s)) ->
         (name, Util.Obj [ ("count", Util.Int n); ("ms", Util.Num (1e3 *. s)) ]))
       (Obs.Agg.span_totals agg))
