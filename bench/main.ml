(* Benchmark & reproduction harness.

   `dune exec bench/main.exe` runs, in order:
   1. the reproduction experiments E1-E24 (paper-vs-measured tables for
      every figure and quantitative claim; see DESIGN.md / EXPERIMENTS.md);
   2. the timing suite T1-T13 (bechamel groups T1-T8 plus the
      custom-measured T9 determinism, T10 serving-cache, T11 serving
      latency, T12 closed-form water-filling and T13 city assignment
      groups).

   `dune exec bench/main.exe -- --experiments` or `-- --timings` runs only
   one half; `-- --quick` runs only scaled-down T9-T13 smokes (seconds,
   suitable for CI). Exit status is nonzero if any reproduction check
   or any quick gate (determinism, cache speedup, serving latency,
   closed-form speedup, city assignment) fails. *)

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--quick" args then begin
    if not (Timings.run_quick ()) then exit 1
  end
  else begin
    let experiments = List.mem "--experiments" args || not (List.mem "--timings" args) in
    let timings = List.mem "--timings" args || not (List.mem "--experiments" args) in
    if experiments then Experiments.run_all ();
    let ok = if experiments then Report.summary () else true in
    if timings then Timings.run_all ();
    if not ok then exit 1
  end
