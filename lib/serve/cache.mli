(** The serving layer's instance cache.

    A bounded {!Lru} of parsed instances keyed by canonical
    {!Fingerprint}, plus a per-instance memo of finished reply payloads
    keyed by the request's canonical key (request kind and parameters).
    Holding the parsed {!Sgr_io.Instance_file.t} keeps the frozen
    {!Sgr_graph.Digraph} CSR arrays alive across requests, so a
    repeated query re-runs neither [freeze] nor the equilibrium solver;
    per-domain Dijkstra workspaces are already reused underneath via
    [Domain.DLS] (see docs/performance.md).

    {b Locking choice: one cache-wide mutex, not sharded locks.} Every
    LRU/binding/memo table operation takes the same internal mutex, so
    one cache is safely shared by {!Sgr_par.Pool} worker domains in
    batch mode and by every session of the concurrent socket server.
    A single mutex is the right trade here because the lock only ever
    guards {e probes} — hash lookups, LRU splay, table stores — which
    are microseconds, while everything expensive (file read, instance
    parse, solver run in [memo]'s [compute]) deliberately happens
    {e outside} the lock. Sharding would buy contention relief the
    probe-only hold times never generate, at the cost of cross-shard
    eviction accounting. Two domains racing to fill the same memo key
    both compute (deterministically) and the results are identical, so
    last-write-wins is harmless — replies never depend on the job
    count. Because [compute] runs unlocked, an exception from it (in
    particular {!Sgr_obs.Cancel.Deadline_exceeded} from a pre-empted
    solve) propagates before the store: a cancelled result is never
    memoized.

    Counter discipline: every lookup bumps the cache's own atomic
    counters (reported by the [stats] request) and the global
    [Sgr_obs.Obs] counters [serve.cache.hit]/[miss]/[eviction] and
    [serve.memo.hit]/[miss]. Memo lookups additionally record their
    latency into the per-domain [Sgr_obs.Hist] histograms
    [serve.memo.hit_seconds] / [serve.memo.cold_seconds], splitting
    probe cost from solver cost (rendered by the [metrics] verb). *)

type entry = private {
  fingerprint : string;  (** 16-hex-digit canonical fingerprint. *)
  instance : Sgr_io.Instance_file.t;
  memo : (string, string) Hashtbl.t;
      (** Reply payloads by canonical request key; guarded by the
          cache mutex. *)
}

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

type error =
  | Io of string  (** File unreadable. *)
  | Parse of string  (** Instance text did not parse. *)
  | Unknown_id of string  (** No [load] bound this id in the session. *)

val load : t -> id:string -> path:string -> (entry * [ `Hit | `Miss ], error) result
(** Read and parse [path], fingerprint it, bind [id] to it, and insert
    it into the LRU (touching it if already present — [`Hit]). [load]
    always re-reads the file, so re-loading a changed file re-keys the
    binding to the new content. *)

val resolve : t -> id:string -> (entry, error) result
(** The entry [id] is bound to. If the entry was evicted since, it is
    transparently reloaded from the bound path (counted as a miss; if
    the file changed on disk the binding follows the new content). *)

val memo : t -> entry -> key:string -> compute:(unit -> string) -> string
(** The memoized reply payload for [key], computing (outside the lock)
    and storing it on first use. Exceptions from [compute] propagate and
    nothing is stored. *)

type stats = {
  entries : int;
  capacity : int;
  hits : int;  (** Entry lookups served from the LRU ([load]+[resolve]). *)
  misses : int;  (** Entry lookups that (re)parsed the file. *)
  evictions : int;
  memo_hits : int;
  memo_misses : int;
  memo_hit_rate : float;
      (** [memo_hits / (memo_hits + memo_misses)]; [0.] before any
          memo lookup. *)
  occupancy : float;  (** [entries / capacity], in [[0, 1]]. *)
}

val stats : t -> stats
