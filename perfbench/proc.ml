(* Child processes of the benchmark. Every workload runs in a fresh
   process: the fast engine raises the process-wide minor heap for
   large n and never lowers it, so one process per workload keeps one
   workload's GC settings out of another's numbers. *)

(* Workload processes are pinned to one CPU when [taskset] exists: the
   host's second vCPU comes and goes with other tenants' load, and a
   multi-domain server measured on one or two cores depending on the
   minute is not one quantity. *)
let taskset = List.find_opt Sys.file_exists [ "/usr/bin/taskset"; "/bin/taskset" ]

let pinned = Option.is_some taskset

let argv exe args =
  match taskset with
  | Some t -> (t, Array.of_list ([ t; "-c"; "0"; exe ] @ args))
  | None -> (exe, Array.of_list (exe :: args))

(* The last non-blank line before end of file. *)
let last_line ic =
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then last := line
     done
   with End_of_file -> ());
  !last

(* Run [exe args] pinned, wait for it, and return its last stdout line
   parsed as JSON. Stderr passes through. *)
let run_json exe args =
  let prog, argv = argv exe args in
  let ic = Unix.open_process_args_in prog argv in
  let last = last_line ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match Ftc_journal.Json.of_string last with
      | Ok j -> Ok j
      | Error e -> Error (Printf.sprintf "%s: unparseable result %S: %s" exe last e))
  | Unix.WEXITED c -> Error (Printf.sprintf "%s %s: exit %d" exe (String.concat " " args) c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Error (Printf.sprintf "%s %s: killed by signal %d" exe (String.concat " " args) s)

let float_field j k = Option.bind (Ftc_journal.Json.member k j) Ftc_journal.Json.to_float
let int_field j k = Option.bind (Ftc_journal.Json.member k j) Ftc_journal.Json.to_int
