type t = int list

let source g = function
  | [] -> invalid_arg "Paths.source: empty path"
  | e :: _ -> (Digraph.edge g e).src

let target g path =
  match List.rev path with
  | [] -> invalid_arg "Paths.target: empty path"
  | e :: _ -> (Digraph.edge g e).dst

let nodes g = function
  | [] -> invalid_arg "Paths.nodes: empty path"
  | first :: _ as path ->
      (Digraph.edge g first).src :: List.map (fun e -> (Digraph.edge g e).dst) path

let is_valid g ~src ~dst path =
  match path with
  | [] -> false
  | _ ->
      let ns = nodes g path in
      let consecutive =
        let rec chk = function
          | e1 :: (e2 :: _ as rest) ->
              (Digraph.edge g e1).dst = (Digraph.edge g e2).src && chk rest
          | _ -> true
        in
        chk path
      in
      consecutive
      && List.hd ns = src
      && target g path = dst
      && List.length (List.sort_uniq compare ns) = List.length ns

let enumerate ?(limit = 20_000) g ~src ~dst =
  let visited = Array.make (Digraph.num_nodes g) false in
  let found = ref [] in
  let count = ref 0 in
  let rec dfs v acc =
    if v = dst then begin
      incr count;
      (* [Failure] is the documented cap contract of the enumeration
         oracle; no solver the CLI or the server runs enumerates. *)
      if !count > limit then
        (failwith "Paths.enumerate: path count exceeds limit") [@lint.allow "no-untyped-failure"];
      found := List.rev acc :: !found
    end
    else begin
      visited.(v) <- true;
      Digraph.iter_out g v (fun e w -> if not visited.(w) then dfs w (e :: acc));
      visited.(v) <- false
    end
  in
  dfs src [];
  List.rev !found

let default_count_cap = 1_000_000_000_000

(* Saturating add: both operands are <= cap <= 10^12 << max_int, so the
   sum itself never overflows; only the reported count saturates. *)
let sat_add cap a b = if a >= cap - b then cap else a + b

exception Capped

let default_count_steps = 20_000_000

let count ?(cap = default_count_cap) ?(max_steps = default_count_steps) g ~src ~dst =
  if cap < 1 then invalid_arg "Paths.count: cap must be positive";
  if max_steps < 1 then invalid_arg "Paths.count: max_steps must be positive";
  match Topology.topological_order g with
  | Some order ->
      (* DAG: every path is simple, so the path count is a DP over the
         reverse topological order with saturating sums. *)
      let ways = Array.make (Digraph.num_nodes g) 0 in
      ways.(dst) <- 1;
      for i = Array.length order - 1 downto 0 do
        let v = order.(i) in
        if v <> dst then begin
          let total = ref 0 in
          Digraph.iter_out g v (fun _ w -> total := sat_add cap !total ways.(w));
          ways.(v) <- !total
        end
      done;
      if ways.(src) >= cap then `At_least cap else `Exact ways.(src)
  | None ->
      (* Cyclic: count simple paths by DFS, stopping at the cap (no path
         lists are materialized, unlike [enumerate]). The cap alone does
         not bound the running time — a city-scale cyclic graph takes
         astronomically many edge steps before its path count saturates
         — so the walk also carries a step budget and bails with the
         lower bound found so far. *)
      let visited = Array.make (Digraph.num_nodes g) false in
      let found = ref 0 in
      let steps = ref 0 in
      let rec dfs v =
        if v = dst then begin
          incr found;
          if !found >= cap then raise Capped
        end
        else begin
          visited.(v) <- true;
          Digraph.iter_out g v (fun _ w ->
              incr steps;
              if !steps > max_steps then raise Capped;
              if not visited.(w) then dfs w);
          visited.(v) <- false
        end
      in
      (try
         dfs src;
         `Exact !found
       with Capped -> if !found >= cap then `At_least cap else `At_least !found)

let cost path costs = List.fold_left (fun acc e -> acc +. costs.(e)) 0.0 path

let pp g ppf path =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "→")
    Format.pp_print_int ppf (nodes g path)
