(* Output-check bookkeeping: every checked operation is attempted once
   and failed at most once, however many of its checks fail. *)

type t = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let create () = { attempted = 0; failed = 0; notes = [] }

(* [record t what errors] counts one operation; a non-empty [errors]
   marks it failed and keeps the first few messages for stderr. *)
let record t what errors =
  t.attempted <- t.attempted + 1;
  if errors <> [] then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 20 then t.notes <- (what ^ ": " ^ String.concat "; " errors) :: t.notes
  end

let report t = List.iter (fun n -> prerr_endline ("perfbench: check failed: " ^ n)) (List.rev t.notes)
