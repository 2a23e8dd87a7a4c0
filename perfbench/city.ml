(* The city-sparse-od workload: Frank–Wolfe assignment to the Wardrop
   equilibrium and to the system optimum on a synthetic ring-and-radial
   city, timed through [Sgr_assign.Solver.solve]. *)

module Network = Sgr_network.Network
module Objective = Sgr_network.Objective
module Solver = Sgr_assign.Solver
module W = Sgr_workloads.Workloads
module Prng = Sgr_numerics.Prng
module Obs = Sgr_obs.Obs

(* [commodities] random OD pairs: one Dijkstra tree and one sink per
   origin, so all-or-nothing assignment dominates a solve. *)
type params = { rings : int; radials : int; commodities : int }

let params_json p =
  Util.Obj
    [
      ("rings", Util.Int p.rings);
      ("radials", Util.Int p.radials);
      ("commodities", Util.Int p.commodities);
    ]

(* The base instance is the 10^4-edge T13 city of bench/timings.ml
   (seed 13000 + rings), its commodities installed again through
   [Network.with_commodities], which re-runs one reachability Dijkstra
   per commodity. Returns the network and the two phase times. *)
let base p =
  let rng = Prng.create (13_000 + p.rings) in
  let city, gen_s =
    Util.time (fun () ->
        W.synthetic_city rng ~rings:p.rings ~radials:p.radials ~commodities:p.commodities ())
  in
  let net, with_s = Util.time (fun () -> Network.with_commodities city city.Network.commodities) in
  (net, gen_s, with_s)

(* The seed's inputs: [variants] copies of the base city whose latency
   coefficients are each scaled by an independent factor in
   [1 ± jitter], validated through [Network.make]. Frank–Wolfe's
   iteration count at a fixed gap moves by tens of percent from one
   random city to the next, and still by about 5% between copies of one
   city perturbed by as little as 1e-4, so the seed perturbs one city
   instead of drawing a new one, and every timed run solves each variant
   at least once: a run's medians then average over [variants] draws of
   that chaotic count instead of sampling one or two. *)
let jitter = 0.01
let variants = 7

let perturb rng (base : Network.t) =
  let j () = 1.0 +. Prng.uniform rng ~lo:(-.jitter) ~hi:jitter in
  let latencies =
    Array.map
      (fun l ->
        match Sgr_latency.Latency.kind l with
        | Sgr_latency.Latency.Affine { slope; intercept } ->
            let slope = slope *. j () in
            Sgr_latency.Latency.affine ~slope ~intercept:(intercept *. j ())
        | _ -> invalid_arg "City.perturb: the city has affine latencies")
      base.Network.latencies
  in
  Network.make base.Network.graph ~latencies ~commodities:base.Network.commodities

let build p ~seed =
  let net, _, _ = base p in
  let rng = Prng.create seed in
  Array.init variants (fun _ -> perturb (Prng.split rng) net)

let objectives = [ ("nash", Objective.Wardrop); ("opt", Objective.System_optimum) ]

let solve ~jobs obj net = Util.time (fun () -> Solver.solve ~tol:Probe.tol ~jobs obj net)

(* The one place a fault can be injected: the smoke check corrupts the
   first compared digest and expects the run to count it as failed. *)
let corrupt d = String.map (fun c -> if c = '0' then '1' else '0') d

type timed = {
  jobs : int;
  setup_s : float;
  nash_s : float list;
  opt_s : float list;
  iterations : (string * int) list;  (** Per timed solve, newest first. *)
  wall_s : float;
  rss_mb : float;
  digests : (string * string) list;
}

let run_timed ~tally ~seconds ~fault p ~seed =
  let nets, setup_s = Util.setup (fun () -> build p ~seed) in
  let jobs = Probe.timed_jobs nets.(0) in
  let reference = Hashtbl.create 16 in
  let faulted = ref (not fault) in
  let iterations = ref [] in
  let checked name obj v =
    let sol, dt = solve ~jobs obj nets.(v) in
    let key = Printf.sprintf "%s.%d" name v in
    iterations := (key, sol.Solver.iterations) :: !iterations;
    let expect =
      match Hashtbl.find_opt reference key with
      | Some d when not !faulted ->
          faulted := true;
          Some (corrupt d)
      | e -> e
    in
    let d, errs = Probe.check_solution ?expect nets.(v) sol in
    Tally.record tally key errs;
    if not (Hashtbl.mem reference key) then Hashtbl.replace reference key d;
    dt
  in
  (* Untimed warm-up: the first variant's equilibrium, which the first
     timed solve must then reproduce bit for bit. *)
  ignore (checked "nash" Objective.Wardrop 0);
  let nash = ref [] and opt = ref [] in
  let t0 = Util.now () in
  let k = ref 0 in
  while !k < variants || Util.now () -. t0 < seconds do
    let v = !k mod variants in
    nash := checked "nash" Objective.Wardrop v :: !nash;
    opt := checked "opt" Objective.System_optimum v :: !opt;
    incr k
  done;
  let wall_s = Util.now () -. t0 in
  {
    jobs;
    setup_s;
    nash_s = !nash;
    opt_s = !opt;
    iterations = !iterations;
    wall_s;
    rss_mb = Util.peak_rss_mb "self";
    digests = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reference []);
  }

let timed_detail (t : timed) =
  [
    ("jobs", Util.Int t.jobs);
    ("nash_s", Util.Obj (List.mapi (fun i s -> (string_of_int i, Util.Num s)) (List.rev t.nash_s)));
    ("opt_s", Util.Obj (List.mapi (fun i s -> (string_of_int i, Util.Num s)) (List.rev t.opt_s)));
    ("iterations", Util.Obj (List.rev_map (fun (k, n) -> (k, Util.Int n)) t.iterations));
    ("edge_flow_digests", Util.Obj (List.map (fun (k, d) -> (k, Util.Str d)) t.digests));
  ]

(* A city request is one variant's Nash solve followed by its optimum
   solve, the pair a price-of-anarchy query needs; mixing the two solves
   into one sample would put the median in the gap between them. *)
let end_to_end (t : timed) =
  let pairs = List.map2 ( +. ) t.nash_s t.opt_s in
  [
    ("setup_s", t.setup_s);
    ("assign_nash_s", Util.median t.nash_s);
    ("assign_opt_s", Util.median t.opt_s);
    ("throughput_rps", float_of_int (List.length pairs) /. t.wall_s);
    ("latency_p50_ms", 1e3 *. Util.median pairs);
    ("latency_p99_ms", 1e3 *. Util.quantile 0.99 pairs);
    ("peak_rss_mb", t.rss_mb);
  ]

(* The traced run: one traced solve per objective with [Obs.Agg]
   installed, the layer probes at the converged equilibrium, one jobs=1
   solve that must match the jobs=N flow bit for bit, and the city
   pushed through the serving stack as an instance file. *)
let run_traced ~tally ~fault ~dir p ~seed =
  let bases = List.init 3 (fun _ -> base p) in
  let gen_ms = 1e3 *. Util.median (List.map (fun (_, g, _) -> g) bases) in
  let with_ms = 1e3 *. Util.median (List.map (fun (_, _, w) -> w) bases) in
  let net = (build p ~seed).(0) in
  let jobs = Probe.jobs_for net in
  let warm, _ = solve ~jobs Objective.Wardrop net in
  let ref_digest, errs = Probe.check_solution net warm in
  Tally.record tally "nash warm-up" errs;
  let plain, plain_s = solve ~jobs Objective.Wardrop net in
  Tally.record tally "nash" (snd (Probe.check_solution ~expect:ref_digest net plain));
  let agg = Obs.Agg.create () in
  let before = Obs.counters () in
  Obs.Agg.install agg;
  let traced =
    Fun.protect
      ~finally:(fun () -> Obs.set_sink None)
      (fun () -> List.map (fun (name, obj) -> (name, solve ~jobs obj net)) objectives)
  in
  let after = Obs.counters () in
  List.iter
    (fun (name, (sol, _)) ->
      let expect = if String.equal name "nash" then Some ref_digest else None in
      Tally.record tally ("traced " ^ name) (snd (Probe.check_solution ?expect net sol)))
    traced;
  let nash_traced_s = snd (List.assoc "nash" traced) in
  let sol1, _ = solve ~jobs:1 Objective.Wardrop net in
  let expect = if fault then Util.digest plain.Solver.edge_flow |> corrupt else ref_digest in
  Tally.record tally "nash jobs=1 vs jobs=N" (snd (Probe.check_solution ~expect net sol1));
  let layer = Probe.assign_layer ~jobs net plain.Solver.edge_flow in
  let delta c = Util.counter_delta before after c in
  let iters name = float_of_int (fst (List.assoc name traced)).Solver.iterations in
  let serve = Serve_probe.on_network ~tally ~dir net in
  let metrics =
    [
      ("assign.nash.iterations", iters "nash");
      ("assign.opt.iterations", iters "opt");
      ("trace.overhead_ratio", nash_traced_s /. plain_s);
      ("workloads.city_gen_ms", gen_ms);
      ("network.with_commodities_ms", with_ms);
    ]
    @ layer @ Probe.counter_metrics before after
    @ Probe.shares ~solve_s:(Probe.span_total agg "assign.solve") ~aon_calls:(delta "assign.aon_calls")
        ~aon_ms:(List.assoc "aon.call_ms" layer) ~line_searches:(delta "assign.line_searches")
        ~line_ms:(List.assoc "line_search.call_ms" layer)
    @ serve.Serve_probe.metrics
  in
  let detail =
    [
      ("jobs", Util.Int jobs);
      ("edges", Util.Int (Sgr_graph.Digraph.num_edges net.Network.graph));
      ("commodities", Util.Int (Array.length net.Network.commodities));
      ("edge_flow_digest.nash", Util.Str ref_digest);
      ("spans", Probe.spans_json agg);
    ]
    @ serve.Serve_probe.detail
  in
  (metrics, detail)
