(* perfbench: one benchmark for the simulator, the verifier and the
   service. See perfbench/README.md for the workloads, the metrics and
   which layer each per-layer metric belongs to.

   main.exe --workload sweep|verify|serve --seed N --seconds S --trace 0|1

   The last stdout line is one JSON object: correct, attempted, failed and
   metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
   Every workload runs in fresh child processes of this executable; this
   process only orchestrates, records host context and prints. *)

open Perfbench
module Json = Ftc_journal.Json

let workloads = [ "sweep"; "verify"; "serve" ]
let out_dir = "perfbench/out"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 1) fmt

(* The metric names and units are read from BENCHMARK.json at the root
   of the checkout, so the list exists in one place. *)
let table key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let str m k = Option.bind (Json.member k m) Json.to_str in
  match Result.map (Json.member key) (Json.of_string text) with
  | Ok (Some (Json.List ms)) ->
      List.map
        (fun m ->
          match (str m "name", str m "unit") with
          | Some name, Some unit -> (name, unit)
          | _ -> die "BENCHMARK.json: a %s entry lacks a name or unit" key)
        ms
  | _ -> die "BENCHMARK.json: no %s list" key

(* Fresh set-up-only processes per run, on top of the measuring one;
   setup_s is the median of all of them. Sweep's set-up is a full trial
   at n = 131072, so it gets fewer. *)
let setup_reps = function "sweep" -> 2 | _ -> 4

(* --- Child processes. --- *)

let child_result f =
  let gc_start = Host.gc_json () in
  let r = f () in
  let j = Layers.result_to_json r in
  let fields = match j with Json.Obj fs -> fs | _ -> [] in
  print_endline
    (Json.to_string (Obj (fields @ [ ("gc_start", gc_start); ("gc_end", Host.gc_json ()) ])))

let child = function
  | [ "run"; w; seed; seconds ] ->
      let seed = int_of_string seed and seconds = float_of_string seconds in
      child_result (fun () ->
          match w with
          | "sweep" -> Sweep_w.run ~seed ~seconds
          | "verify" -> Verify_w.run ~seed ~seconds
          | "serve" -> Serve_w.run ~seed ~seconds
          | _ -> die "unknown workload %s" w)
  | [ "setup"; w ] ->
      let s =
        match w with
        | "sweep" -> Sweep_w.setup ()
        | "verify" -> fst (Verify_w.setup ())
        | "serve" -> Serve_w.setup ()
        | _ -> die "unknown workload %s" w
      in
      print_endline (Json.to_string (Obj [ ("setup_s", Float s) ]))
  | [ "layers"; w; seed ] ->
      let seed = int_of_string seed in
      child_result (fun () ->
          let r =
            match w with
            | "sweep" -> Sweep_w.layers ~seed
            | "verify" -> Verify_w.layers ~seed
            | "serve" -> Serve_w.layers ~seed
            | _ -> die "unknown workload %s" w
          in
          Layers.write_spans (Printf.sprintf "%s/spans-%s-seed%d.jsonl" out_dir w seed);
          r)
  | args -> die "bad child arguments: %s" (String.concat " " args)

(* --- The orchestrating process. --- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep|verify|serve --seed N --seconds S --trace 0|1";
  exit 2

let parse args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (workload, int "seed", seconds, trace = 1)

let self = Sys.executable_name

let spawn args = match Proc.run_json self args with Ok j -> j | Error e -> die "%s" e

let field j k =
  match Proc.float_field j k with Some v -> v | None -> die "child result lacks %s" k

let metrics_of j =
  match Json.member "metrics" j with
  | Some (Json.Obj fs) ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) fs
  | _ -> die "child result lacks metrics"

let errors_of j =
  match Json.member "errors" j with
  | Some (Json.List es) -> List.filter_map Json.to_str es
  | _ -> []

let orchestrate ~workload ~seed ~seconds ~traced =
  let table = table (if traced then "per_layer" else "end_to_end") in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let spin_before = Host.time Host.spin in
  let spin_one, spin_two, cores = Host.effective_cores () in
  let s = string_of_int seed in
  let children =
    if traced then List.map (fun w -> spawn [ "child"; "layers"; w; s ]) workloads
    else [ spawn [ "child"; "run"; workload; s; string_of_int seconds ] ]
  in
  let setups =
    if traced then []
    else
      List.init (setup_reps workload) (fun _ ->
          field (spawn [ "child"; "setup"; workload ]) "setup_s")
  in
  let spin_after = Host.time Host.spin in
  let total k = List.fold_left (fun acc j -> acc + int_of_float (field j k)) 0 children in
  let attempted = total "attempted" and failed = total "failed" in
  List.iter
    (fun j -> List.iter (fun e -> prerr_endline ("perfbench: failure: " ^ e)) (errors_of j))
    children;
  let measured = List.concat_map metrics_of children in
  let values =
    if traced then
      ("failed_frac", float_of_int failed /. float_of_int (max 1 attempted)) :: measured
    else
      ("setup_s", Stats.median (List.map (fun j -> field j "setup_s") children @ setups))
      :: measured
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name values with
        | Some v when Float.is_finite v ->
            (name, Json.Obj [ ("value", Float v); ("unit", String unit) ])
        | Some _ -> die "metric %s is not a finite number" name
        | None -> die "metric %s was not measured" name)
      table
  in
  let context =
    Json.Obj
      [
        ("workload", String workload);
        ("seed", Int seed);
        ("seconds", Int seconds);
        ("trace", Bool traced);
        ("ocaml", String Sys.ocaml_version);
        ("pinned_cpu0", Bool Proc.pinned);
        ("spin_s_before", Float spin_before);
        ("spin_s_after", Float spin_after);
        ("spin_s_one_domain", Float spin_one);
        ("spin_s_two_domains", Float spin_two);
        ("effective_cores", Float cores);
        ("setup_s_samples", List (List.map (fun v -> Json.Float v) setups));
        ("children", List children);
      ]
  in
  let oc =
    open_out (Printf.sprintf "%s/%s-seed%d-trace%d.json" out_dir workload seed (Bool.to_int traced))
  in
  output_string oc (Json.to_string context);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf
    "perfbench: host: ocaml %s, %.2f effective cores, spin %.3f s before / %.3f s after\n%!"
    Sys.ocaml_version cores spin_before spin_after;
  print_endline
    (Json.to_string
       (Obj
          [
            ("correct", Bool (failed = 0));
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("metrics", Obj metrics);
          ]))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: rest -> child rest
  | [ "server"; sock; traced ] -> Serve_w.server_main ~sock ~traced:(traced = "1")
  | args ->
      let workload, seed, seconds, traced = parse args in
      orchestrate ~workload ~seed ~seconds ~traced
