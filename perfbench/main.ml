(* perfbench: one seeded workload per run, timed and checked.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
             [--size full|smoke] [--fault] [--commit REV] [--sgr PATH]
             [--tmp DIR]

   Prints a provenance line, a detail line of diagnostics, and as the
   last line one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. --fault corrupts one checked output on purpose; the run
   must then report it as failed. *)

let workloads = [ "city-sparse-od"; "serve-cold" ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  match name with
  | "throughput_rps" -> "req/s"
  | "peak_rss_mb" -> "MB"
  | "aon.jobs_speedup" -> "x"
  | _ when ends "_ms" || ends "_ms_jobs1" || String.starts_with ~prefix:"engine.cold_ms." name -> "ms"
  | _ when ends "_us" || ends ".us" -> "us"
  | _ when ends "_s" -> "s"
  | _ when ends "_ratio" || ends "_rate" || ends "_frac" || ends ".share" -> "ratio"
  | _ -> "count"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "full" and fault = ref false and commit = ref "unknown" in
  let sgr = ref "_build/default/bin/sgr.exe" and tmp = ref ".perfbench_tmp" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--size", Arg.Set_string size, " full|smoke");
      ("--fault", Arg.Set fault, " corrupt one checked output");
      ("--commit", Arg.Set_string commit, " source revision, for provenance");
      ("--sgr", Arg.Set_string sgr, " the sgr executable (serve workloads)");
      ("--tmp", Arg.Set_string tmp, " scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let smoke =
    match !size with
    | "full" -> false
    | "smoke" -> true
    | s ->
        prerr_endline ("perfbench: unknown size " ^ s);
        exit 2
  in
  let dir = Filename.concat !tmp (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  Util.mkdir_p dir;
  let tally = Tally.create () in
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds and fault = !fault in
  let params, metrics, detail =
    Fun.protect
      ~finally:(fun () -> Util.rm_rf dir)
      (fun () ->
        match !workload with
        | "city-sparse-od" ->
            let p = Workload_params.city ~smoke in
            if traced then
              let m, d = City.run_traced ~tally ~fault ~dir p ~seed in
              (City.params_json p, m, d)
            else
              let t = City.run_timed ~tally ~seconds ~fault p ~seed in
              (City.params_json p, City.end_to_end t, City.timed_detail t)
        | _ ->
            let p = Workload_params.serve ~smoke in
            let run = if traced then Serve.run_traced else Serve.run_timed in
            let m, d = run ~tally ~fault ~sgr:!sgr ~dir ~seconds p ~seed in
            (Serve.params_json p, m, d))
  in
  let provenance =
    Util.Obj
      [
        ("workload", Util.Str !workload);
        ("seed", Util.Int seed);
        ("seconds", Util.Num seconds);
        ("trace", Util.Int !trace);
        ("size", Util.Str !size);
        ("params", params);
        ("nproc", Util.Int (Domain.recommended_domain_count ()));
        ("ocaml", Util.Str Sys.ocaml_version);
        ("commit", Util.Str !commit);
      ]
  in
  print_endline (Util.json_to_string (Util.Obj [ ("provenance", provenance) ]));
  if detail <> [] then print_endline (Util.json_to_string (Util.Obj [ ("detail", Util.Obj detail) ]));
  Tally.report tally;
  let metric (name, v) =
    (name, Util.Obj [ ("value", Util.Num v); ("unit", Util.Str (unit_of name)) ])
  in
  print_endline
    (Util.json_to_string
       (Util.Obj
          [
            ("correct", Util.Bool (tally.Tally.failed = 0 && tally.attempted > 0));
            ("attempted", Util.Int tally.attempted);
            ("failed", Util.Int tally.failed);
            ("metrics", Util.Obj (List.map metric metrics));
          ]))
