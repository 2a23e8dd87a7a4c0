type result = { dist : float array; pred : int array }

module Obs = Sgr_obs.Obs

let c_runs = Obs.counter "dijkstra.runs"
let c_relax = Obs.counter "dijkstra.relaxations"

type workspace = {
  mutable size : int;  (* node count the arrays are sized for; 0 = empty *)
  mutable dist : float array;
  mutable pred : int array;
  mutable settled : bool array;
  mutable is_target : bool array;  (* all false between runs *)
  mutable touched : int array;  (* nodes the last run gave a finite [dist] *)
  mutable n_touched : int;
  mutable zero : float array;  (* the potential of an unguided run *)
  heap : Heap.t;
}

let workspace ?(hint = 0) () =
  {
    size = 0;
    dist = [||];
    pred = [||];
    settled = [||];
    is_target = [||];
    touched = [||];
    n_touched = 0;
    zero = [||];
    heap = Heap.create ~hint ();
  }

(* Size the scratch arrays for an [n]-node graph and reset them. Only
   the entries the previous run touched can differ from the reset
   state, so a sink-bounded run pays for what it reached, not for [n];
   when the previous run reached most of the graph three sequential
   fills beat the scatter. No allocation on the repeated-run path. *)
let prepare ws n =
  if ws.size <> n then begin
    ws.dist <- Array.make n Float.infinity;
    ws.pred <- Array.make n (-1);
    ws.settled <- Array.make n false;
    ws.is_target <- Array.make n false;
    ws.touched <- Array.make n 0;
    ws.zero <- Array.make n 0.0;
    ws.size <- n
  end
  else if 2 * ws.n_touched > n then begin
    Array.fill ws.dist 0 n Float.infinity;
    Array.fill ws.pred 0 n (-1);
    Array.fill ws.settled 0 n false
  end
  else
    for i = 0 to ws.n_touched - 1 do
      let v = ws.touched.(i) in
      ws.dist.(v) <- Float.infinity;
      ws.pred.(v) <- -1;
      ws.settled.(v) <- false
    done;
  ws.n_touched <- 0;
  Heap.clear ws.heap

let validate_weights weights =
  Array.iter
    (fun w ->
      if not (w >= 0.0) then
        invalid_arg "Dijkstra: edge weights must be nonnegative (and not NaN)")
    weights

(* The kernel, shared by every run: [off]/[ids] is a CSR adjacency
   (out- or in-) and [other].(e) the endpoint the search moves to along
   edge [e] (dst forward, src reverse). Iterates the flat arrays
   directly — no list cells or closures per settled node.

   [origins] all start at distance 0. With [targets] the run stops as
   soon as every target is settled: a settled node's [dist] and [pred]
   are final, and so is every node on its [pred] chain. With
   [potential] h the heap key is [dist + h(v)] (A* search); for a
   consistent h — h(u) <= w(e) + h(v) on every edge — reduced weights
   are nonnegative, so every settled node is still exact. Without either
   argument the key is [dist + 0.0], bitwise [dist], and the run
   settles everything it reaches, exactly as plain Dijkstra. *)
let run_dir ?targets ?potential ws ~off ~ids ~other ~weights ~n ~origins =
  Obs.incr c_runs;
  prepare ws n;
  let dist = ws.dist and pred = ws.pred and settled = ws.settled and heap = ws.heap in
  let is_target = ws.is_target and touched = ws.touched in
  let relaxations = ref 0 in
  let h = match potential with Some h -> h | None -> ws.zero in
  Array.iter
    (fun o ->
      if dist.(o) < Float.infinity then ()
      else begin
        dist.(o) <- 0.0;
        touched.(ws.n_touched) <- o;
        ws.n_touched <- ws.n_touched + 1;
        Heap.insert heap h.(o) o
      end)
    origins;
  (* [remaining] counts unsettled distinct targets; it stays negative on
     an untargeted run, so the run drains the heap. *)
  let remaining = ref (if Option.is_some targets then 0 else -1) in
  Option.iter
    (Array.iter (fun t ->
         if not is_target.(t) then begin
           is_target.(t) <- true;
           incr remaining
         end))
    targets;
  let u = ref (if !remaining = 0 then -1 else Heap.pop heap) in
  while !u >= 0 do
    let u' = !u in
    (* Lazy deletion: skip stale entries. *)
    if settled.(u') then u := Heap.pop heap
    else begin
      settled.(u') <- true;
      if is_target.(u') then begin
        is_target.(u') <- false;
        decr remaining
      end;
      if !remaining = 0 then u := -1
      else begin
        let du = dist.(u') in
        for k = off.(u') to off.(u' + 1) - 1 do
          let e = ids.(k) in
          let v = other.(e) in
          incr relaxations;
          let nd = du +. weights.(e) in
          if nd < dist.(v) then begin
            if not (dist.(v) < Float.infinity) then begin
              touched.(ws.n_touched) <- v;
              ws.n_touched <- ws.n_touched + 1
            end;
            dist.(v) <- nd;
            pred.(v) <- e;
            Heap.insert heap (nd +. h.(v)) v
          end
        done;
        u := Heap.pop heap
      end
    end
  done;
  (* Targets never reached keep their mark until here. *)
  Option.iter (Array.iter (fun t -> is_target.(t) <- false)) targets;
  (* One batched counter update per run keeps the inner loop free of
     atomic traffic while the count stays exact. *)
  Obs.add c_relax !relaxations;
  { dist; pred }

let run ?(validate = false) ?workspace:ws g ~weights ~source =
  if validate then validate_weights weights;
  let ws = match ws with Some ws -> ws | None -> workspace () in
  run_dir ws
    ~off:(Digraph.out_offsets g) ~ids:(Digraph.out_edge_ids g)
    ~other:(Digraph.edge_targets g) ~weights ~n:(Digraph.num_nodes g) ~origins:[| source |]

let run_reverse ?(validate = false) ?workspace:ws g ~weights ~sink =
  if validate then validate_weights weights;
  let ws = match ws with Some ws -> ws | None -> workspace () in
  run_dir ws
    ~off:(Digraph.in_offsets g) ~ids:(Digraph.in_edge_ids g)
    ~other:(Digraph.edge_sources g) ~weights ~n:(Digraph.num_nodes g) ~origins:[| sink |]

let run_to ?workspace:ws ?potential g ~weights ~source ~targets =
  let ws = match ws with Some ws -> ws | None -> workspace () in
  run_dir ~targets ?potential ws
    ~off:(Digraph.out_offsets g) ~ids:(Digraph.out_edge_ids g)
    ~other:(Digraph.edge_targets g) ~weights ~n:(Digraph.num_nodes g) ~origins:[| source |]

let nearest_sink_distances ?workspace:ws g ~weights ~sinks =
  let ws = match ws with Some ws -> ws | None -> workspace () in
  let r =
    run_dir ws
      ~off:(Digraph.in_offsets g) ~ids:(Digraph.in_edge_ids g)
      ~other:(Digraph.edge_sources g) ~weights ~n:(Digraph.num_nodes g) ~origins:sinks
  in
  Array.copy r.dist

let shortest_path ?(validate = false) ?workspace g ~weights ~src ~dst =
  if validate then validate_weights weights;
  (* Only [dst]'s chain is read, and it is final once [dst] settles. *)
  let ({ dist; pred } : result) = run_to ?workspace g ~weights ~source:src ~targets:[| dst |] in
  if dist.(dst) = Float.infinity then None
  else begin
    let sources = Digraph.edge_sources g in
    let rec walk v acc =
      if v = src then acc
      else
        let e = pred.(v) in
        if e < 0 then acc (* unreachable; cannot happen when dist is finite *)
        else walk sources.(e) (e :: acc)
    in
    Some (walk dst [])
  end

let shortest_edge_subgraph ?(eps = Sgr_numerics.Tolerance.check_eps) ?validate ?workspaces g
    ~weights ~src ~dst =
  let fwd_ws, bwd_ws =
    match workspaces with Some pair -> pair | None -> (workspace (), workspace ())
  in
  let fwd = run ?validate ~workspace:fwd_ws g ~weights ~source:src in
  let bwd = run_reverse ~workspace:bwd_ws g ~weights ~sink:dst in
  let total = fwd.dist.(dst) in
  let m = Digraph.num_edges g in
  let on_sp = Array.make m false in
  if total < Float.infinity then begin
    let sources = Digraph.edge_sources g and targets = Digraph.edge_targets g in
    for e = 0 to m - 1 do
      let through = fwd.dist.(sources.(e)) +. weights.(e) +. bwd.dist.(targets.(e)) in
      if through < Float.infinity && through <= total +. (eps *. Float.max 1.0 total) then
        on_sp.(e) <- true
    done
  end;
  on_sp
