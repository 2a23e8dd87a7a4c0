module L = Sgr_latency.Latency
module G = Sgr_graph
module Tol = Sgr_numerics.Tolerance

type commodity = { src : int; dst : int; demand : float }

type t = {
  graph : G.Digraph.t;
  latencies : L.t array;
  commodities : commodity array;
}

(* One zero-weight tree per distinct source, stopped as soon as that
   source's sinks are settled; a sink is reachable iff it got a finite
   distance. One workspace and one weight array serve every tree. *)
let check_reachable g commodities =
  let by_src = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      let sinks = Option.value (Hashtbl.find_opt by_src c.src) ~default:[] in
      Hashtbl.replace by_src c.src (c.dst :: sinks))
    commodities;
  let weights = Array.make (G.Digraph.num_edges g) 0.0 in
  let workspace = G.Dijkstra.workspace () in
  Array.iter
    (fun c ->
      match Hashtbl.find_opt by_src c.src with
      | None -> () (* this source's tree already ran *)
      | Some sinks ->
          (* A tree can settle the whole graph; check between them so
             validating a large instance respects the deadline. *)
          Sgr_obs.Cancel.check ();
          Hashtbl.remove by_src c.src;
          let targets = Array.of_list sinks in
          let r = G.Dijkstra.run_to ~workspace g ~weights ~source:c.src ~targets in
          if not (Array.for_all (fun t -> r.dist.(t) < Float.infinity) targets) then
            invalid_arg "Network.make: destination unreachable from source")
    commodities

let make graph ~latencies ~commodities =
  if Array.length latencies <> G.Digraph.num_edges graph then
    invalid_arg "Network.make: one latency per edge required";
  if Array.length commodities = 0 then invalid_arg "Network.make: no commodities";
  Array.iter
    (fun c ->
      if not (Float.is_finite c.demand) then invalid_arg "Network.make: non-finite demand";
      if c.demand < 0.0 then invalid_arg "Network.make: negative demand";
      if c.src = c.dst then invalid_arg "Network.make: source equals destination")
    commodities;
  check_reachable graph commodities;
  { graph; latencies; commodities }

let single graph ~latencies ~src ~dst ~demand =
  make graph ~latencies ~commodities:[| { src; dst; demand } |]

let total_demand t = Array.fold_left (fun acc c -> acc +. c.demand) 0.0 t.commodities

let cost t f =
  let acc = ref 0.0 in
  Array.iteri (fun e fe -> acc := !acc +. L.cost t.latencies.(e) fe) f;
  !acc

let beckmann t f =
  let acc = ref 0.0 in
  Array.iteri (fun e fe -> acc := !acc +. L.primitive t.latencies.(e) fe) f;
  !acc

let edge_latencies t f = Array.mapi (fun e fe -> L.eval t.latencies.(e) fe) f
let edge_marginals t f = Array.mapi (fun e fe -> L.marginal t.latencies.(e) fe) f

let shift t s =
  assert (Array.length s = G.Digraph.num_edges t.graph);
  let latencies = Array.mapi (fun e lat -> L.shift (Tol.clamp_nonneg s.(e)) lat) t.latencies in
  { t with latencies }

let with_commodities t commodities = make t.graph ~latencies:t.latencies ~commodities

(* Demand replacement cannot break the [make] invariants (the topology,
   endpoints, and reachability are untouched), so no revalidation — in
   particular no per-commodity reachability Dijkstra. This sits in the
   innermost loop of [Induced.equilibrium]. *)
let with_demands t demands =
  if Array.length demands <> Array.length t.commodities then
    invalid_arg "Network.with_demands: one demand per commodity required";
  let commodities =
    Array.mapi
      (fun i c ->
        let d = demands.(i) in
        if not (Float.is_finite d) then invalid_arg "Network.with_demands: non-finite demand";
        if d < 0.0 then invalid_arg "Network.with_demands: negative demand";
        { c with demand = d })
      t.commodities
  in
  { t with commodities }

let paths t =
  Array.map
    (fun c ->
      (* [Paths.enumerate] is exponential in the graph; at minimum the
         deadline must be honoured between commodities. *)
      Sgr_obs.Cancel.check ();
      Array.of_list (G.Paths.enumerate t.graph ~src:c.src ~dst:c.dst))
    t.commodities
