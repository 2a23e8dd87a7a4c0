(* Clock, order statistics, memory and JSON helpers shared by the
   workloads. *)

(* Seconds on the monotonic clock, at nanosecond resolution: request
   latencies of a few microseconds must not collapse onto the
   microsecond grid of [Unix.gettimeofday]. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Util.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Util.quantile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Median seconds of [reps] timed calls of [f] (after one untimed call).
   Calls too short for the clock are batched [inner] at a time, and
   each sample is the batch mean. *)
let median_time ?(inner = 1) ~reps f =
  ignore (Sys.opaque_identity (f ()));
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         for _ = 1 to inner do
           ignore (Sys.opaque_identity (f ()))
         done;
         (now () -. t0) /. float_of_int inner))

(* Set-up is timed [setup_reps] times per run and its median reported:
   [setup ~release f] returns the last result of [f] and that median,
   handing every earlier result to [release]. *)
let setup_reps = 5

let setup ?(release = ignore) f =
  let rec go k times =
    let r, dt = time f in
    if k = 1 then (r, median (dt :: times))
    else begin
      release r;
      go (k - 1) (dt :: times)
    end
  in
  go setup_reps []

(* Peak resident set ("VmHWM") of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let kb =
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      lines
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("no VmHWM in " ^ path)

(* FNV-1a over the IEEE bits of every float: equal digests mean
   bit-identical arrays. *)
let digest (a : float array) =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) a;
  Sgr_serve.Fingerprint.of_string (Bytes.unsafe_to_string b)

let counter_delta before after name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  get after - get before

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* {1 JSON} *)

type json = Num of float | Int of int | Str of string | Bool of bool | Obj of (string * json) list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 || Char.code c > 0x7e -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec json_to_string = function
  | Num x ->
      if Float.is_finite x then Printf.sprintf "%.17g" x
      else invalid_arg "Util.json_to_string: non-finite number"
  | Int n -> string_of_int n
  | Str s -> json_string s
  | Bool b -> string_of_bool b
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> json_string k ^ ": " ^ json_to_string v) kvs)
      ^ "}"
