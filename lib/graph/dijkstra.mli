(** Single-source shortest paths with nonnegative edge weights.

    MOP (the paper's algorithm for networks) needs, for each commodity,
    both the distance labels under optimum-induced edge costs and the
    subgraph of edges lying on *some* shortest s–t path (footnote 5).
    The latter is characterized by
    [dist_from_s(src e) + w e + dist_to_t(dst e) = dist_from_s(t)].

    The kernel iterates the graph's CSR adjacency (see
    {!Digraph.out_offsets}) and can run inside a caller-owned
    {!workspace}, in which case repeated runs on the same graph perform
    no allocation — column-generation pricing does one run per
    commodity per round, and {!shortest_edge_subgraph} does two.

    One kernel serves every run. {!run_to} bounds it by a target set
    and guides it by a node potential (A* search); {!run} and
    {!run_reverse} use neither and settle everything reachable. *)

type result = {
  dist : float array;  (** [dist.(v)] — distance from the source; [infinity] if unreachable. *)
  pred : int array;
      (** [pred.(v)] — id of the edge entering [v] on one shortest path,
          or [-1] for the source and unreachable nodes. *)
}

(** {1 Workspaces} *)

type workspace
(** Reusable scratch state: dist/pred/settled arrays plus the heap.
    A workspace adapts to whatever graph it is run on (it reallocates
    when the node count changes); reusing one across runs on the same
    graph allocates nothing, and resetting it costs the nodes the
    previous run reached, not the whole graph. Not domain-safe: use one
    workspace per domain (e.g. via [Domain.DLS]) in parallel code. *)

val workspace : ?hint:int -> unit -> workspace
(** Fresh empty workspace; [hint] presizes the heap. *)

(** {1 Runs}

    [validate] (default [false]) checks every weight is nonnegative
    before running and raises [Invalid_argument] otherwise — an O(m)
    scan that solver inner loops skip; tests and entry points handling
    untrusted data should pass [~validate:true].

    When [?workspace] is supplied, the returned {!result} {e aliases}
    the workspace arrays: it is valid until the workspace's next run.
    Without it a fresh workspace is allocated per call. *)

val run :
  ?validate:bool -> ?workspace:workspace -> Digraph.t -> weights:float array -> source:int ->
  result
(** Dijkstra from [source]. [weights] is indexed by edge id. *)

val run_reverse :
  ?validate:bool -> ?workspace:workspace -> Digraph.t -> weights:float array -> sink:int ->
  result
(** Distances *to* [sink] (Dijkstra on the reversed graph);
    [pred.(v)] is the edge leaving [v] on a shortest path to the sink. *)

val run_to :
  ?workspace:workspace ->
  ?potential:float array ->
  Digraph.t ->
  weights:float array ->
  source:int ->
  targets:int array ->
  result
(** Dijkstra from [source] that stops as soon as every node of
    [targets] is settled (or nothing more is reachable). With
    [potential] h (indexed by node) the heap key of [v] is
    [dist.(v) + h.(v)] — A* towards the targets. h must be {e
    consistent}: [h.(src e) <= weights.(e) + h.(dst e)] on every edge,
    e.g. a lower bound on [weights] run through {!nearest_sink_distances}
    on the targets; nodes with [h = infinity] are never settled before
    the targets.

    [dist] and [pred] are only meaningful on {e settled} nodes: every
    reachable target, and every node on a target's [pred] chain, is
    settled and exact; other entries may be unset or tentative. A
    target is reachable iff its [dist] is finite. Without [potential]
    the settled prefix is exactly the one {!run} settles, with the
    same [pred] bit for bit. *)

val nearest_sink_distances :
  ?workspace:workspace -> Digraph.t -> weights:float array -> sinks:int array -> float array
(** [nearest_sink_distances g ~weights ~sinks] is, for every node, its
    distance to the nearest node of [sinks] ([infinity] if it reaches
    none): one reverse Dijkstra started from all sinks at once. A fresh
    array (it does not alias the workspace). *)

val shortest_path :
  ?validate:bool -> ?workspace:workspace -> Digraph.t -> weights:float array -> src:int ->
  dst:int -> int list option
(** Edge ids of one shortest [src]–[dst] path (in path order), or [None]
    if unreachable — the path {!run} from [src] would give, found by a
    run that stops once [dst] is settled. *)

val shortest_edge_subgraph :
  ?eps:float -> ?validate:bool -> ?workspaces:workspace * workspace -> Digraph.t ->
  weights:float array -> src:int -> dst:int -> bool array
(** [b.(e)] is true iff edge [e] lies on some shortest [src]–[dst] path,
    up to additive slack [eps] (default {!Sgr_numerics.Tolerance.check_eps})
    to absorb solver noise in the weights. [workspaces] is the
    (forward, reverse) scratch pair for the two underlying runs. *)
