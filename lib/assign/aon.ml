module G = Sgr_graph
module L = Sgr_latency.Latency
module Network = Sgr_network.Network
module Obs = Sgr_obs.Obs

let c_calls = Obs.counter "assign.aon_calls"
let c_trees = Obs.counter "assign.dijkstra_trees"

(* One Dijkstra workspace per domain: tree builds fan over the pool and
   each worker reuses its own scratch arrays across iterations. Results
   alias the workspace, so every tree walks its commodities' paths out
   before the workspace is reused. *)
let ws_key = Domain.DLS.new_key (fun () -> G.Dijkstra.workspace ())

(* A* potentials cost one float per node per tree; past this many the
   plan keeps none and the trees run sink-bounded but unguided, so a
   network with thousands of origins does not pay gigabytes for them. *)
let max_potential_floats = 1 lsl 22

type plan = {
  trees : int array;  (* 0 .. number of trees - 1, the pool's task list *)
  sources : int array;  (* distinct commodity sources, ascending *)
  tree_of : int array;  (* commodity index -> index into [sources] *)
  slot_of : int array;  (* commodity index -> its position in [members] *)
  members : int array array;  (* tree -> its commodities, ascending *)
  sinks : int array array;  (* tree -> the distinct sinks of its commodities *)
  floor : float array;  (* edge -> max 0 ℓ_e(0) *)
  potentials : float array option array;  (* tree -> free-flow distance to its sinks *)
}

let distinct_sorted a =
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  let distinct = ref [] in
  Array.iteri
    (fun i s -> if i = 0 || sorted.(i - 1) <> s then distinct := s :: !distinct)
    sorted;
  Array.of_list (List.rev !distinct)

let plan ?jobs (net : Network.t) =
  let g = net.Network.graph in
  let ks = net.Network.commodities in
  let srcs = Array.map (fun c -> c.Network.src) ks in
  let sources = distinct_sorted srcs in
  let index_of s =
    (* why: binary search for the first index with sources.(i) >= s —
       the window halves every pass, so the loop is log-bounded. *)
    let lo = ref 0 and hi = ref (Array.length sources - 1) in
    (while !lo < !hi do
       let mid = (!lo + !hi) / 2 in
       if sources.(mid) < s then lo := mid + 1 else hi := mid
     done)
    [@lint.allow "cancel-coverage"];
    !lo
  in
  let tree_of = Array.map index_of srcs in
  let ntrees = Array.length sources in
  let counts = Array.make ntrees 0 in
  Array.iter (fun t -> counts.(t) <- counts.(t) + 1) tree_of;
  let members = Array.map (fun c -> Array.make c 0) counts in
  let slot_of = Array.make (Array.length ks) 0 in
  let filled = Array.make ntrees 0 in
  Array.iteri
    (fun i t ->
      slot_of.(i) <- filled.(t);
      members.(t).(filled.(t)) <- i;
      filled.(t) <- filled.(t) + 1)
    tree_of;
  let sinks =
    Array.map (fun ms -> distinct_sorted (Array.map (fun i -> ks.(i).Network.dst) ms)) members
  in
  (* Both gradients are at least the free-flow latency on x >= 0: ℓ_e is
     nondecreasing, and (x·ℓ_e)' = ℓ_e + x·ℓ_e' >= ℓ_e(0). *)
  let floor =
    Array.map
      (fun lat ->
        let w = L.eval lat 0.0 in
        if w > 0.0 then w else 0.0)
      net.Network.latencies
  in
  (* The free-flow distance to a tree's nearest sink never exceeds the
     distance under any weights >= [floor], and it is consistent, so it
     is an A* potential for every iteration and both objectives. *)
  let potentials =
    if ntrees * G.Digraph.num_nodes g > max_potential_floats then Array.make ntrees None
    else
      Sgr_par.Pool.map ?jobs
        (fun sinks ->
          Sgr_obs.Cancel.check ();
          Some
            (G.Dijkstra.nearest_sink_distances ~workspace:(Domain.DLS.get ws_key) g
               ~weights:floor ~sinks))
        sinks
  in
  let trees = Array.init ntrees Fun.id in
  { trees; sources; tree_of; slot_of; members; sinks; floor; potentials }

let num_trees p = Array.length p.sources
let weight_floor p = p.floor

(* The potentials are valid only for weights at or above the floor.
   Annotated: on polymorphic arrays every read would box a float and
   every test call the generic compare, once per edge per call. *)
let above_floor (weights : float array) (floor : float array) =
  let ok = ref true in
  for e = 0 to Array.length floor - 1 do
    if not (weights.(e) >= floor.(e)) then ok := false
  done;
  !ok

let assign ?jobs ?record p (net : Network.t) ~weights ~into =
  Obs.incr c_calls;
  let g = net.Network.graph in
  let m = G.Digraph.num_edges g in
  if Array.length into <> m then invalid_arg "Aon.assign: flow array has the wrong length";
  Array.fill into 0 m 0.0;
  let ks = net.Network.commodities in
  let edge_src = G.Digraph.edge_sources g in
  let guided = above_floor weights p.floor in
  (* Phase 1 — trees on the pool, each stopped once its sinks are
     settled, then its commodities' paths walked out (sink to source)
     into the tree's slot. Deterministic per tree, so the paths are
     independent of the job count. An empty path marks an unreachable
     sink (a commodity never has src = dst). *)
  let paths =
    Sgr_par.Pool.map ?jobs
      (fun t ->
        (* Per-tree checkpoint: free on a disarmed domain; on the
           sequential fallback it keeps a large batch pre-emptible
           between Dijkstras. *)
        Sgr_obs.Cancel.check ();
        Obs.incr c_trees;
        let potential = if guided then p.potentials.(t) else None in
        let r =
          G.Dijkstra.run_to ~workspace:(Domain.DLS.get ws_key) ?potential g ~weights
            ~source:p.sources.(t) ~targets:p.sinks.(t)
        in
        let pred = r.G.Dijkstra.pred in
        let cancel = Sgr_obs.Cancel.handle () in
        Array.map
          (fun i ->
            let src = ks.(i).Network.src in
            let len = ref 0 and v = ref ks.(i).Network.dst in
            while !v <> src && pred.(!v) >= 0 do
              Sgr_obs.Cancel.check_handle cancel;
              incr len;
              v := edge_src.(pred.(!v))
            done;
            if !v <> src then [||]
            else begin
              let path = Array.make !len 0 in
              v := ks.(i).Network.dst;
              for k = 0 to !len - 1 do
                Sgr_obs.Cancel.check_handle cancel;
                path.(k) <- pred.(!v);
                v := edge_src.(path.(k))
              done;
              path
            end)
          p.members.(t))
      p.trees
  in
  (* Phase 2 — sequential accumulation in commodity order. *)
  let cancel = Sgr_obs.Cancel.handle () in
  Array.iteri
    (fun i (c : Network.commodity) ->
      let path = paths.(p.tree_of.(i)).(p.slot_of.(i)) in
      if Array.length path = 0 then
        invalid_arg
          (Printf.sprintf "Aon.assign: commodity %d cannot reach node %d from node %d" i
             c.Network.dst c.Network.src);
      Array.iter
        (fun e ->
          Sgr_obs.Cancel.check_handle cancel;
          into.(e) <- into.(e) +. c.Network.demand)
        path;
      (* The path runs sink to source, so folding from the left conses
         it into source-to-sink order. Only built when asked for. *)
      match record with
      | None -> ()
      | Some f -> f ~commodity:i ~path:(Array.fold_left (fun acc e -> e :: acc) [] path))
    ks
