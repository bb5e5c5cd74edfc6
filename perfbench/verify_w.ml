(* Workload [verify]: Verify.run exhaustive ft-agreement at n = 4 with
   the default configuration (keep-prefix 2, symmetry reduction, every
   oracle), jobs = 1, over the whole space, one run after another. The
   same simulator layers as [sweep], used the opposite way: hundreds of
   thousands of tiny runs, so per-run fixed cost (case build, engine
   set-up, trace, oracles, state enumeration) dominates. *)

open Perfbench
module Verify = Ftc_verify.Verify
module Space = Ftc_verify.Space

let protocol = "ft-agreement"
let n = 4
let alpha = 0.5

(* Closed-form size of the whole space. It does not depend on the seed. *)
let total_states = 587_501
let total_schedules = 9_365_008

let config ?max_states base_seed =
  { (Verify.default_config ~protocol) with Verify.n; alpha; jobs = 1; max_states; base_seed }

let base_seed ~seed i = (((seed land 0xFFFF_FFFF) * 4096) + i) land 0x3FFF_FFFF_FFFF

(* Without [max_states] the run must have covered the whole space. *)
let check_report ?max_states (r : Verify.report) =
  let want = Option.value max_states ~default:total_states in
  if r.total_states <> total_states || r.total_schedules <> total_schedules then
    Error
      (Printf.sprintf "space %d states / %d schedules, pinned %d / %d" r.total_states
         r.total_schedules total_states total_schedules)
  else if r.explored_states <> want then
    Error (Printf.sprintf "explored %d states, expected %d" r.explored_states want)
  else if max_states = None && not (r.complete && r.covered_schedules = total_schedules) then
    Error (Printf.sprintf "covered %d schedules of %d" r.covered_schedules total_schedules)
  else if r.violations <> [] then
    Error
      (Printf.sprintf "%d violation(s), first: %s" (List.length r.violations)
         (String.concat "; " (List.hd r.violations).details))
  else Ok ()

let verify ?recorder ?max_states base_seed =
  match Verify.run ?recorder (config ?max_states base_seed) with
  | Error e -> (None, Error ("Verify.run: " ^ e))
  | Ok r -> (Some r, check_report ?max_states r)

let space () =
  match Space.make ~protocol ~n ~alpha () with
  | Ok sp -> sp
  | Error e -> failwith ("verify set-up: " ^ e)

(* Set-up: the space built and counted, and a warm-up run over its first
   states at a fixed seed, so set-up does the same work at every
   workload seed. *)
let setup () =
  let t0 = Host.now () in
  let sp = space () in
  ignore (Space.count sp);
  (match verify ~max_states:20_000 0 with
   | _, Ok () -> ()
   | _, Error e -> failwith ("verify warm-up: " ^ e));
  (Host.now () -. t0, sp)

let run ~seed ~seconds =
  let setup_s, _ = setup () in
  let tally = Layers.tally () in
  let calls = ref [] and states = ref 0 in
  let t0 = Host.now () in
  let i = ref 0 in
  while Host.now () -. t0 < seconds do
    let c0 = Host.now () in
    let r, check = verify (base_seed ~seed !i) in
    calls := ((Host.now () -. c0) *. 1000.) :: !calls;
    Option.iter (fun (r : Verify.report) -> states := !states + r.explored_states) r;
    Layers.count tally check;
    incr i
  done;
  let wall = Host.now () -. t0 in
  Layers.finish tally ~setup_s
    ~context:[ ("latency_max_ms", Stats.quantile !calls 1.0) ]
    [
      ("work_per_s", float_of_int !states /. wall);
      ("latency_p50_ms", Stats.quantile !calls 0.5);
      ("peak_rss_mb", Host.self_peak_rss_mb ());
    ]

(* Per-layer run over the first [k] canonical states, streamed as
   Verify.run streams them: each state's enumeration, Case.run and a
   separate Oracle.check on its result are timed call by call. Then
   Verify.run over the same states, untraced around a traced run. *)
let k = 20_000

let layers ~seed =
  let setup_s, sp = setup () in
  let tally = Layers.tally () in
  let bs = base_seed ~seed 0 in
  let entry = Option.get (Ftc_chaos.Catalog.find protocol) in
  let enum_ns = ref 0. and run_ns = ref 0. and oracle_ns = ref 0. and findings = ref 0 in
  let run_words = ref 0. in
  let clock () = Unix.gettimeofday () *. 1e9 in
  ignore
    (Layers.span "Space.states+Case.run+Oracle.check" (fun _ ->
         let t = ref (clock ()) in
         Seq.iter
           (fun st ->
             let c = Space.to_case sp ~base_seed:bs ~seed_index:0 st in
             let w1 = Gc.minor_words () in
             let t1 = clock () in
             enum_ns := !enum_ns +. (t1 -. !t);
             let res =
               match Ftc_chaos.Case.run c with
               | Ok (res, _) -> res
               | Error e -> failwith ("Case.run: " ^ Ftc_chaos.Case.error_to_string e)
             in
             let t2 = clock () in
             run_words := !run_words +. (Gc.minor_words () -. w1);
             run_ns := !run_ns +. (t2 -. t1);
             let found = Ftc_chaos.Oracle.check entry ~inputs:c.inputs res in
             findings := !findings + List.length found;
             t := clock ();
             oracle_ns := !oracle_ns +. (!t -. t2))
           (Seq.take k (Space.states sp))));
  Layers.count tally
    (if !findings = 0 then Ok () else Error (Printf.sprintf "%d oracle finding(s)" !findings));
  let timed ?recorder name =
    let (report, check), ns =
      Layers.span name (fun _ -> verify ?recorder ~max_states:k bs)
    in
    Layers.count tally check;
    (report, ns)
  in
  let report, before_ns = timed "Verify.run" in
  let _, traced_ns = timed ~recorder:(Ftc_telemetry.Recorder.create ()) "Verify.run traced" in
  let _, after_ns = timed "Verify.run" in
  let verify_ns = (before_ns +. after_ns) /. 2. in
  let per_state ns = ns /. 1e3 /. float_of_int k in
  let count f = match report with Some r -> float_of_int (f r) | None -> Float.nan in
  Layers.finish tally ~setup_s
      [
        ("verify.enum_us_per_state", per_state !enum_ns);
        ("chaos.case_run_us", per_state !run_ns);
        ("chaos.minor_words_per_case", !run_words /. float_of_int k);
        ("chaos.oracle_us", per_state !oracle_ns);
        ("verify.self_us_per_state", per_state (verify_ns -. !enum_ns -. !run_ns));
        ("verify.states", count (fun r -> r.Verify.explored_states));
        ("verify.schedules", count (fun r -> r.Verify.covered_schedules));
        ("verify.violations", count (fun r -> List.length r.Verify.violations));
        ("trace.overhead_pct.verify", (traced_ns -. verify_ns) /. verify_ns *. 100.);
      ]
