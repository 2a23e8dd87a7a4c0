(* The serve-cold workload: a fresh [sgr serve] child driven over its
   Unix socket by two closed-loop connections (each sends its next
   request only after its own reply), with every reply checked against
   the in-process engine. Parameters are fresh and the pool is larger
   than the server's cache, so the memo almost never hits and evicted
   instances are parsed again. *)

module IF = Sgr_io.Instance_file
module W = Sgr_workloads.Workloads
module Prng = Sgr_numerics.Prng
module Network = Sgr_network.Network
module Cache = Sgr_serve.Cache
module Engine = Sgr_serve.Engine
module Protocol = Sgr_serve.Protocol
module Fingerprint = Sgr_serve.Fingerprint
module Obs = Sgr_obs.Obs

type params = {
  instances : int;  (** Instance files in the pool. *)
  cache : int;  (** The server's [--cache] capacity. *)
  max_links : int;  (** Affine parallel-links sizes are drawn in [50, max_links]. *)
  max_curved : int;
      (** Polynomial and M/M/1 sizes are drawn in [20, max_curved]: their
          water-filling bisects, and a sweep point costs ~150 ms at 500 links. *)
  city_rings : int;
  city_radials : int;  (** Cities carry 8 commodities and [4·rings·radials] edges. *)
  warmup : int;  (** Untimed requests per connection. *)
  replay : int;  (** Requests per connection replayed in-process by the traced run. *)
}

let connections = 2

let params_json p =
  Util.Obj
    [
      ("instances", Util.Int p.instances);
      ("cache", Util.Int p.cache);
      ("max_links", Util.Int p.max_links);
      ("max_curved", Util.Int p.max_curved);
      ("city_edges", Util.Int (4 * p.city_rings * p.city_radials));
      ("connections", Util.Int connections);
      ("warmup", Util.Int p.warmup);
      ("replay", Util.Int p.replay);
    ]

(* {1 Inputs} *)

(* Pool slot [i] by [i mod 20]: nine affine parallel-links instances
   (closed-form water-filling), four polynomial and two M/M/1
   (bisection), four small grids (mop) and one city (assign). *)
type slot = Affine | Polynomial | Mm1 | Grid_slot | City_slot

let slot i =
  match i mod 20 with
  | 8 | 9 | 10 | 11 -> Polynomial
  | 12 | 13 -> Mm1
  | 14 | 15 | 16 | 17 -> Grid_slot
  | 18 -> City_slot
  | _ -> Affine

(* Cities are perturbed copies of one base city (see {!City.perturb}):
   a random city's Frank–Wolfe iteration count, and so the latency tail,
   would swing by tens of percent from seed to seed. *)
let base_city p =
  W.synthetic_city (Prng.create (13_000 + p.city_rings)) ~rings:p.city_rings ~radials:p.city_radials
    ~commodities:8 ()

(* [frac] in (0, 1) places a links instance in its size range. *)
let instance p ~base rng i ~frac =
  let size lo hi = lo + int_of_float (frac *. float_of_int (hi - lo)) in
  match slot i with
  | Affine -> IF.Links (W.random_affine_links rng ~m:(size 50 p.max_links) ())
  | Polynomial -> IF.Links (W.random_polynomial_links rng ~m:(size 20 p.max_curved) ~max_degree:3 ())
  | Mm1 -> IF.Links (W.random_mm1_links rng ~m:(size 20 p.max_curved) ())
  | Grid_slot -> IF.Network (W.grid_network rng ~rows:(3 + Prng.int rng 2) ~cols:(3 + Prng.int rng 3) ())
  | City_slot -> IF.Network (City.perturb rng (Lazy.force base))

type pool = { ids : string array; paths : string array; texts : string array }

(* Sizes are stratified: the members of each slot class take the evenly
   spaced fractions (k + 1/2)/n in a seeded order, so every seed draws
   the same size mix and the heavy tail does not hinge on a few draws;
   coefficients, topologies and the request streams stay random. *)
let fractions ~seed n =
  let rng = Prng.create (seed * 31) in
  let frac = Array.make n 0.5 in
  List.iter
    (fun s ->
      let members = Array.of_list (List.filter (fun i -> slot i = s) (List.init n Fun.id)) in
      let k = Array.length members in
      let order = Array.init k Fun.id in
      Prng.shuffle rng order;
      Array.iteri (fun j i -> frac.(i) <- (float_of_int order.(j) +. 0.5) /. float_of_int k) members)
    [ Affine; Polynomial; Mm1; Grid_slot; City_slot ];
  frac

let write_pool p ~dir ~seed =
  let n = p.instances in
  let frac = fractions ~seed n in
  let base = lazy (base_city p) in
  let ids = Array.init n (Printf.sprintf "i%d") in
  let paths = Array.map (fun id -> Filename.concat dir (id ^ ".sgr")) ids in
  let texts =
    Array.init n (fun i ->
        let text =
          match instance p ~base (Prng.create ((seed * 100_003) + i)) i ~frac:frac.(i) with
          | IF.Links t -> IF.print_links t
          | IF.Network n -> IF.print_network n
        in
        Out_channel.with_open_text paths.(i) (fun oc -> output_string oc text);
        text)
  in
  { ids; paths; texts }

(* The requests an instance answers: [Fixed (verb, rest)] renders as
   "verb ID rest", [Alpha verb] as "verb ID ALPHA". *)
type verb = Fixed of string * string | Alpha of string

let verbs i =
  match slot i with
  | Affine | Polynomial | Mm1 ->
      [| Fixed ("solve", "nash"); Fixed ("solve", "opt"); Fixed ("optop", ""); Alpha "induced"; Alpha "sweep" |]
  | Grid_slot -> [| Fixed ("solve", "nash"); Fixed ("solve", "opt"); Fixed ("mop", ""); Alpha "induced" |]
  | City_slot -> [| Fixed ("assign", "nash fw"); Fixed ("assign", "opt fw") |]

let render verb id alpha =
  match verb with
  | Fixed (v, "") -> v ^ " " ^ id
  | Fixed (v, rest) -> String.concat " " [ v; id; rest ]
  | Alpha v -> String.concat " " [ v; id; alpha ]

(* Connection [c]'s endless request stream: a uniformly drawn instance
   and verb, and a fresh four-digit alpha. A [load] precedes each
   instance's first use on this connection. *)
let stream pool ~seed c =
  let rng = Prng.create ((seed * 7919) + c + 1) in
  let loaded = Array.make (Array.length pool.ids) false in
  let queue = Queue.create () in
  fun () ->
    if Queue.is_empty queue then begin
      let i = Prng.int rng (Array.length pool.ids) in
      if not loaded.(i) then begin
        loaded.(i) <- true;
        Queue.add (Printf.sprintf "load %s %s" pool.ids.(i) pool.paths.(i)) queue
      end;
      let vs = verbs i in
      let verb = vs.(Prng.int rng (Array.length vs)) in
      Queue.add (render verb pool.ids.(i) (Printf.sprintf "%.4f" (Prng.float rng))) queue
    end;
    Queue.pop queue

(* {1 The server child} *)

type server = { pid : int; socket : string }

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (waitpid_noeintr s.pid)

let ping socket =
  match Sgr_serve.Client.connect socket with
  | c ->
      Fun.protect
        ~finally:(fun () -> Sgr_serve.Client.close c)
        (fun () -> Sgr_serve.Client.rpc c "ping" = Some "ok pong")
  | exception Unix.Unix_error _ -> false

(* Spawn [sgr serve] and return once it answers [ping]. *)
let start_server ~sgr ~dir ~cache =
  let socket = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "server.log") [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () ->
        Unix.create_process sgr [| sgr; "serve"; "--socket"; socket; "--cache"; string_of_int cache |] null log log)
  in
  let s = { pid; socket } in
  let t0 = Util.now () in
  let rec wait () =
    if Sys.file_exists socket && ping socket then s
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Util.now () -. t0 < 60.0 ->
          Unix.sleepf 0.002;
          wait ()
      | 0, _ ->
          stop_server s;
          failwith "sgr serve did not answer ping within 60 s"
      | _ -> failwith "sgr serve exited at startup (see its log)"
  in
  wait ()

(* {1 Closed-loop client} *)

(* Load replies carry [cache=hit|miss], which depends on cache state;
   everything else in a reply is a pure function of the request. *)
let normalize reply =
  if String.starts_with ~prefix:"ok load " reply then
    String.concat " "
      (List.filter (fun t -> not (String.starts_with ~prefix:"cache=" t)) (String.split_on_char ' ' reply))
  else reply

type conn = {
  fd : Unix.file_descr;
  next : unit -> string;
  buf : Buffer.t;
  mutable inflight : (string * float) option;
  mutable sent : int;
}

(* Timed requests in completion order: latency, completion time and
   'n'/'o' for [assign nash]/[assign opt] ('-' otherwise), in flat
   arrays so recording a reply allocates nothing the GC must trace. *)
type samples = { mutable lat : float array; mutable fin : float array; mutable tag : Bytes.t; mutable n : int }

let samples () = { lat = Array.make 4096 0.0; fin = Array.make 4096 0.0; tag = Bytes.make 4096 '-'; n = 0 }

let tag_of request =
  if not (String.starts_with ~prefix:"assign " request) then '-'
  else if String.ends_with ~suffix:" nash fw" request then 'n'
  else if String.ends_with ~suffix:" opt fw" request then 'o'
  else '-'

let add s ~latency ~finished tag =
  if s.n = Array.length s.lat then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    s.lat <- grow s.lat 0.0;
    s.fin <- grow s.fin 0.0;
    s.tag <- Bytes.extend s.tag 0 (Bytes.length s.tag)
  end;
  s.lat.(s.n) <- latency;
  s.fin.(s.n) <- finished;
  Bytes.set s.tag s.n tag;
  s.n <- s.n + 1

let latencies ?tag s =
  List.filter_map
    (fun i -> if Option.fold ~none:true ~some:(Char.equal (Bytes.get s.tag i)) tag then Some s.lat.(i) else None)
    (List.init s.n Fun.id)

(* Replies seen, by request: the normalized reply and how often. *)
type log = { seen : (string, string * int ref) Hashtbl.t; mutable lost : int; mutable inconsistent : int }

let connect socket next =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; next; buf = Buffer.create 4096; inflight = None; sent = 0 }

let send c =
  let line = c.next () in
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0;
  c.sent <- c.sent + 1;
  c.inflight <- Some (line, Util.now ())

let record log request reply =
  let reply = normalize reply in
  match Hashtbl.find_opt log.seen request with
  | None -> Hashtbl.replace log.seen request (reply, ref 1)
  | Some (r, n) ->
      incr n;
      if not (String.equal r reply) then log.inconsistent <- log.inconsistent + 1

(* Drive every connection until [stop c] holds for each, keeping one
   request in flight per connection. [on_reply] sees each request, its
   reply and its latency. A connection that closes, errors or stays
   silent for 60 s with a request in flight counts it as lost. *)
let drive conns ~stop ~on_reply log =
  let chunk = Bytes.create 65536 in
  let kill c =
    if c.inflight <> None then log.lost <- log.lost + 1;
    c.inflight <- None
  in
  let send_next c = if not (stop c) then try send c with Unix.Unix_error _ -> kill c in
  List.iter send_next conns;
  let last = ref (Util.now ()) in
  let rec loop () =
    let live = List.filter (fun c -> c.inflight <> None) conns in
    if live <> [] then begin
      let ready, _, _ =
        try Unix.select (List.map (fun c -> c.fd) live) [] [] 1.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if ready = [] && Util.now () -. !last > 60.0 then List.iter kill live;
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> kill c
            | n -> (
                last := Util.now ();
                Buffer.add_subbytes c.buf chunk 0 n;
                let s = Buffer.contents c.buf in
                match (String.index_opt s '\n', c.inflight) with
                | Some i, Some (request, t) ->
                    let latency = Util.now () -. t in
                    Buffer.clear c.buf;
                    Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
                    c.inflight <- None;
                    on_reply request (String.sub s 0 i) latency;
                    send_next c
                | _ -> ())
            | exception Unix.Unix_error _ -> kill c)
        live;
      loop ()
    end
  in
  loop ()

(* {1 Checks} *)

(* The reference: the in-process engine on a cache that holds the whole
   pool, memoized by request text (replies are pure functions of it). *)
let reference p =
  let cache = Cache.create ~capacity:(p.instances + 1) in
  let memo = Hashtbl.create 1024 in
  fun request ->
    match Hashtbl.find_opt memo request with
    | Some r -> r
    | None ->
        let r = normalize (Option.value ~default:"" (Engine.execute_raw cache request)) in
        Hashtbl.replace memo request r;
        r

(* Every reply starts with [ok] and equals the reference reply, and an
   [assign] reply reports the requested gap; a request whose replies
   differed within the run fails each time. *)
let check ~tally ~reference (log : log) =
  (* Loads first, so the reference binds every id before its verbs. *)
  let entries = Hashtbl.fold (fun req v acc -> (req, v) :: acc) log.seen [] in
  let loads, verbs = List.partition (fun (r, _) -> String.starts_with ~prefix:"load " r) entries in
  List.iter
    (fun (req, (reply, n)) ->
      let expected = reference req in
      let errs =
        if not (String.starts_with ~prefix:"ok " reply) then [ req ^ " -> " ^ reply ]
        else if not (String.equal reply expected) then [ req ^ " -> " ^ reply ^ ", expected " ^ expected ]
        else if String.starts_with ~prefix:"assign " req then Serve_probe.assign_errors reply
        else []
      in
      for _ = 1 to !n do
        Tally.record tally req errs
      done)
    (List.sort compare loads @ List.sort compare verbs);
  for _ = 1 to log.lost do
    Tally.record tally "request" [ "connection lost with the request in flight" ]
  done;
  for _ = 1 to log.inconsistent do
    Tally.record tally "request" [ "reply differs from an earlier reply to the same request" ]
  done

(* {1 Runs} *)

type socket_run = {
  samples : samples;
  t0 : float;  (** Start of the timed phase. *)
  wall_s : float;
  rss_mb : float;
  log : log;
}

(* Warm up, then time [seconds] of closed-loop traffic. [fault]
   corrupts the first timed reply. *)
let socket_run p pool server ~seed ~seconds ~fault =
  let conns = List.init connections (fun c -> connect server.socket (stream pool ~seed c)) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun c -> Unix.close c.fd) conns)
    (fun () ->
      let log = { seen = Hashtbl.create 4096; lost = 0; inconsistent = 0 } in
      drive conns ~stop:(fun c -> c.sent >= p.warmup) ~on_reply:(fun q r _ -> record log q r) log;
      let samples = samples () and pending_fault = ref fault in
      let t0 = Util.now () in
      let deadline = t0 +. seconds in
      drive conns
        ~stop:(fun _ -> Util.now () >= deadline)
        ~on_reply:(fun request reply latency ->
          let reply = if !pending_fault then (pending_fault := false; "!" ^ reply) else reply in
          record log request reply;
          add samples ~latency ~finished:(Util.now ()) (tag_of request))
        log;
      let wall_s = Util.now () -. t0 in
      { samples; t0; wall_s; rss_mb = Util.peak_rss_mb (string_of_int server.pid); log })

(* Pool, server and ping; the last server stays up. *)
let setup p ~sgr ~dir ~seed =
  let (pool, server), setup_s =
    Util.setup
      ~release:(fun (_, server) -> stop_server server)
      (fun () ->
        let pool = write_pool p ~dir ~seed in
        (pool, start_server ~sgr ~dir ~cache:p.cache))
  in
  (pool, server, setup_s)

(* Throughput and p99 of consecutive windows of at least 1,000 timed
   requests (at most ten windows): their medians shrug off a burst of
   interference from other processes that a whole-run figure absorbs. *)
let windows run =
  let s = run.samples in
  let k = max 1 (min 10 (s.n / 1000)) in
  List.init k (fun w ->
      let lo = w * s.n / k and hi = ((w + 1) * s.n / k) - 1 in
      let start = if lo = 0 then run.t0 else s.fin.(lo - 1) in
      let lat = Array.to_list (Array.sub s.lat lo (hi - lo + 1)) in
      (float_of_int (hi - lo + 1) /. (s.fin.(hi) -. start), Util.quantile 0.99 lat))

let run_timed ~tally ~fault ~sgr ~dir ~seconds p ~seed =
  let pool, server, setup_s = setup p ~sgr ~dir ~seed in
  let run =
    Fun.protect ~finally:(fun () -> stop_server server) (fun () -> socket_run p pool server ~seed ~seconds ~fault)
  in
  check ~tally ~reference:(reference p) run.log;
  let lat = latencies run.samples in
  let windows = windows run in
  ( [
      ("setup_s", setup_s);
      ("assign_nash_s", Util.median (latencies ~tag:'n' run.samples));
      ("assign_opt_s", Util.median (latencies ~tag:'o' run.samples));
      ("throughput_rps", Util.median (List.map fst windows));
      ("latency_p50_ms", 1e3 *. Util.median lat);
      ("latency_p99_ms", 1e3 *. Util.median (List.map snd windows));
      ("peak_rss_mb", run.rss_mb);
    ],
    [
      ("latency_samples", Util.Int (List.length lat));
      ("distinct_requests", Util.Int (Hashtbl.length run.log.seen));
      ("server_jobs", Util.Str (Option.value ~default:"1" (Sys.getenv_opt "SGR_JOBS")));
    ] )


(* {1 The traced run} *)

let verb_of request = match String.index_opt request ' ' with Some i -> String.sub request 0 i | None -> request

(* The first [warmup + replay] requests of every connection, interleaved
   round-robin as the server would roughly see them. *)
let replay_lines p pool ~seed =
  let n = p.warmup + p.replay in
  let per = Array.init connections (fun c -> let next = stream pool ~seed c in Array.init n (fun _ -> next ())) in
  List.concat (List.init n (fun i -> List.init connections (fun c -> per.(c).(i))))

let hit_counter = Obs.counter "serve.memo.hit"

(* Replay [lines] through [Protocol.parse_line] and [Engine.execute] on
   a fresh cache of the server's capacity. Returns the cache, the wall
   time and, per request, its reply, its seconds and whether it was a
   memo hit. *)
let replay p lines =
  let cache = Cache.create ~capacity:p.cache in
  let t0 = Util.now () in
  let calls =
    List.map
      (fun line ->
        let hits = Obs.value hit_counter in
        let t = Util.now () in
        let reply =
          match Protocol.parse_line line with
          | Ok (Some l) -> Engine.execute cache l
          | Ok None -> ""
          | Error m -> Protocol.error_reply `Parse m
        in
        (line, reply, Util.now () -. t, Obs.value hit_counter > hits))
      lines
  in
  (cache, Util.now () -. t0, calls)

(* Serving-layer probes over the pool and the replayed requests:
   medians over up to 50 instances (parse, fingerprint, load) and 200
   request lines (protocol parse); memo hits on a cache holding the
   whole pool. *)
let serve_layer p pool lines =
  let first n a = Array.sub a 0 (min n (Array.length a)) in
  let texts = first 50 pool.texts in
  let parse text = match IF.parse text with Ok i -> i | Error e -> failwith ("pool instance: " ^ e) in
  let per f xs = Util.median (Array.to_list (Array.map f xs)) in
  let hit_cache = Cache.create ~capacity:(p.instances + 1) in
  Array.iteri
    (fun i id -> ignore (Engine.execute_raw hit_cache (Printf.sprintf "load %s %s" id pool.paths.(i))))
    pool.ids;
  let pure =
    List.filter
      (fun l ->
        match Protocol.parse_line l with
        | Ok (Some r) -> Protocol.memo_key r.Protocol.request <> None
        | _ -> false)
      lines
  in
  let hit_us line =
    ignore (Engine.execute_raw hit_cache line);
    1e6 *. Util.median_time ~inner:50 ~reps:5 (fun () -> Engine.execute_raw hit_cache line)
  in
  [
    ("io.instance_parse_ms", 1e3 *. per (fun t -> Util.median_time ~reps:3 (fun () -> parse t)) texts);
    ("fingerprint.us", 1e6 *. per (fun t -> let i = parse t in Util.median_time ~reps:5 (fun () -> Fingerprint.of_instance i)) texts);
    ("cache.load_ms", 1e3 *. per (fun path -> Util.median_time ~reps:3 (fun () -> Cache.load (Cache.create ~capacity:1) ~id:"x" ~path)) (first 50 pool.paths));
    ("protocol.parse_us", per Serve_probe.parse_us (first 200 (Array.of_list lines)));
    ("engine.hit_us", per hit_us (first 50 (Array.of_list pure)));
  ]

(* The assign-layer probes on the pool's first city, which the engine
   solves at jobs=1; its jobs=N equilibrium must match jobs=1 bit for
   bit. *)
let city_layer ~tally ~fault p pool =
  let i = ref 0 in
  while slot !i <> City_slot do incr i done;
  let net = match IF.parse pool.texts.(!i) with Ok (IF.Network n) -> n | _ -> failwith "pool city" in
  let jobs = Probe.jobs_for net in
  let sol, _ = City.solve ~jobs Sgr_network.Objective.Wardrop net in
  let digest, errs = Probe.check_solution net sol in
  Tally.record tally "pool city nash" errs;
  let sol1, _ = City.solve ~jobs:1 Sgr_network.Objective.Wardrop net in
  let expect = if fault then City.corrupt digest else digest in
  Tally.record tally "pool city jobs=1 vs jobs=N" (snd (Probe.check_solution ~expect net sol1));
  let gen_s =
    Util.median (List.init 3 (fun _ -> snd (Util.time (fun () -> City.perturb (Prng.create 1) (base_city p)))))
  in
  let with_s =
    Util.median_time ~reps:3 (fun () -> Network.with_commodities net net.Network.commodities)
  in
  ( jobs,
    [ ("workloads.city_gen_ms", 1e3 *. gen_s); ("network.with_commodities_ms", 1e3 *. with_s) ]
    @ Probe.assign_layer ~jobs net sol.Sgr_assign.Solver.edge_flow )

(* The traced run: a short socket run (client latency, checked
   replies), then the same request prefix replayed in-process twice —
   untraced, and traced with [Obs.Agg] installed for span totals,
   counter deltas and per-call timings by verb and by memo hit or
   cold. *)
let run_traced ~tally ~fault ~sgr ~dir ~seconds p ~seed =
  let pool, server, _ = setup p ~sgr ~dir ~seed in
  let run =
    Fun.protect
      ~finally:(fun () -> stop_server server)
      (fun () -> socket_run p pool server ~seed ~seconds:(Float.min seconds 3.0) ~fault:false)
  in
  let reference = reference p in
  check ~tally ~reference run.log;
  let lines = replay_lines p pool ~seed in
  let _, plain_s, plain = replay p lines in
  let agg = Obs.Agg.create () in
  let before = Obs.counters () in
  Obs.Agg.install agg;
  let cache, traced_s, calls = Fun.protect ~finally:(fun () -> Obs.set_sink None) (fun () -> replay p lines) in
  let after = Obs.counters () in
  (* The replay must answer as the reference does, traced or not. *)
  List.iter2
    (fun (line, reply, _, _) (_, plain_reply, _, _) ->
      let r = normalize reply in
      Tally.record tally ("replay " ^ line)
        (if String.equal r (reference line) && String.equal r (normalize plain_reply) then []
         else [ "replay reply " ^ reply ]))
    calls plain;
  let cold verb = List.filter (fun (l, _, _, hit) -> (not hit) && String.equal (verb_of l) verb) calls in
  let cold_ms verb = match cold verb with [] -> None | xs -> Some (1e3 *. Util.median (List.map (fun (_, _, s, _) -> s) xs)) in
  let iterations obj =
    List.fold_left
      (fun acc (l, reply, _, _) ->
        if String.ends_with ~suffix:(" " ^ obj ^ " fw") l then
          acc + Option.value ~default:0 (Option.bind (Serve_probe.field reply "iterations") int_of_string_opt)
        else acc)
      0 (cold "assign")
  in
  let jobs, city = city_layer ~tally ~fault p pool in
  let serve = serve_layer p pool lines in
  let delta c = Util.counter_delta before after c in
  let metrics =
    [
      ("assign.nash.iterations", float_of_int (iterations "nash"));
      ("assign.opt.iterations", float_of_int (iterations "opt"));
      ("trace.overhead_ratio", traced_s /. plain_s);
      ("engine.cold_ms.assign", Option.value ~default:0.0 (cold_ms "assign"));
    ]
    @ city @ Probe.counter_metrics before after
    @ Probe.shares ~solve_s:(Probe.span_total agg "assign.solve") ~aon_calls:(delta "assign.aon_calls")
        ~aon_ms:(List.assoc "aon.call_ms_jobs1" city) ~line_searches:(delta "assign.line_searches")
        ~line_ms:(List.assoc "line_search.call_ms" city)
    @ serve @ Serve_probe.cache_metrics cache
  in
  let client_p50_us = 1e6 *. Util.median (latencies run.samples) in
  let verbs = [ "load"; "solve"; "optop"; "mop"; "induced"; "sweep"; "assign" ] in
  let detail =
    [
      ("jobs", Util.Int jobs);
      ("replayed", Util.Int (List.length lines));
      ("client_p50_us", Util.Num client_p50_us);
      ("serve.transport_us", Util.Num (client_p50_us -. List.assoc "engine.hit_us" serve));
      ( "engine.cold_ms",
        Util.Obj (List.filter_map (fun v -> Option.map (fun ms -> (v, Util.Num ms)) (cold_ms v)) verbs) );
      ("cold_calls", Util.Obj (List.map (fun v -> (v, Util.Int (List.length (cold v)))) verbs));
      ("spans", Probe.spans_json agg);
    ]
  in
  (metrics, detail)
