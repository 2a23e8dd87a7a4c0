(* Serving-stack timings (parse, fingerprint, load, cold and memo-hit
   execution) for one network instance: city-sparse-od pushes its
   city through the same layers a [sgr serve] request would. *)

module IF = Sgr_io.Instance_file
module Cache = Sgr_serve.Cache
module Engine = Sgr_serve.Engine
module Protocol = Sgr_serve.Protocol
module Fingerprint = Sgr_serve.Fingerprint

type t = { metrics : (string * float) list; detail : (string * Util.json) list }

(* The value of [key=] in a reply line. *)
let field reply key =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.equal (String.sub tok 0 i) key ->
          Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' reply)

(* Checks of an [assign] reply: ok, and the requested gap reached. *)
let assign_errors reply =
  if not (String.starts_with ~prefix:"ok assign " reply) then [ "reply " ^ reply ]
  else
    match Option.bind (field reply "gap") float_of_string_opt with
    | Some g when g <= Probe.tol -> []
    | _ -> [ "gap missed in " ^ reply ]

let cache_metrics cache =
  let s = Cache.stats cache in
  [
    ("cache.memo_hit_rate", s.Cache.memo_hit_rate);
    ("cache.evictions", float_of_int s.evictions);
    ("cache.misses", float_of_int s.misses);
  ]

let parse_us line = 1e6 *. Util.median_time ~inner:200 ~reps:5 (fun () -> Protocol.parse_line line)

let on_network ~tally ~dir net =
  let text = IF.print_network net in
  let path = Filename.concat dir "city.sgr" in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  let parse_s = Util.median_time ~reps:5 (fun () -> IF.parse text) in
  let inst = match IF.parse text with Ok i -> i | Error e -> failwith ("city does not parse: " ^ e) in
  let fp_s = Util.median_time ~reps:9 (fun () -> Fingerprint.of_instance inst) in
  let line = "assign c nash fw" in
  let load_s =
    Util.median_time ~reps:5 (fun () -> Cache.load (Cache.create ~capacity:1) ~id:"c" ~path)
  in
  let cache = Cache.create ~capacity:4 in
  let exec l = Option.value ~default:"" (Engine.execute_raw cache l) in
  let load = exec ("load c " ^ path) in
  Tally.record tally "load city" (if String.starts_with ~prefix:"ok load " load then [] else [ load ]);
  let cold, cold_s = Util.time (fun () -> exec line) in
  Tally.record tally "assign via engine" (assign_errors cold);
  let hit_s = Util.median_time ~inner:100 ~reps:9 (fun () -> exec line) in
  let hit = exec line in
  Tally.record tally "memo hit" (if String.equal hit cold then [] else [ "memo hit differs: " ^ hit ]);
  {
    metrics =
      [
        ("io.instance_parse_ms", 1e3 *. parse_s);
        ("fingerprint.us", 1e6 *. fp_s);
        ("protocol.parse_us", parse_us line);
        ("cache.load_ms", 1e3 *. load_s);
        ("engine.hit_us", 1e6 *. hit_s);
        ("engine.cold_ms.assign", 1e3 *. cold_s);
      ]
      @ cache_metrics cache;
    detail = [ ("engine.assign_reply", Util.Str cold) ];
  }
