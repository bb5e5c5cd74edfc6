(* Tests for the adversary strategies: faulty-set budgets, crash timing,
   and targeting behaviour. *)

module Adversary = Ftc_sim.Adversary
module Observation = Ftc_sim.Observation
module Strategy = Ftc_fault.Strategy
module Rng = Ftc_rng.Rng

(* A faulty node as a test describes it; [view] lays a list of them out
   as the engines do: ascending ids, each node's observation in the
   observations array, its sends behind [pending_of]. *)
type node_view = { node : int; observation : Observation.t; pending : Adversary.outgoing list }

let view ~round ~n ~alive_faulty ~observations =
  let all_observations = Array.copy observations in
  List.iter (fun nv -> all_observations.(nv.node) <- nv.observation) alive_faulty;
  let alive = Array.of_list (List.sort compare (List.map (fun nv -> nv.node) alive_faulty)) in
  let pending_of i = (List.find (fun nv -> nv.node = i) alive_faulty).pending in
  { Adversary.round; n; alive; alive_count = Array.length alive; pending_of; all_observations }

let node_view ?(role = Observation.Bystander) ?rank ?(pending = []) node =
  { node; observation = { Observation.role; rank; has_decided = false }; pending }

let test_pick_faulty_budget () =
  let rng = Rng.create 1 in
  List.iter
    (fun (name, make) ->
      if name <> "none" then begin
        let adv = make () in
        let faulty = adv.Adversary.pick_faulty rng ~n:100 ~f:30 in
        Alcotest.(check int) (name ^ ": exactly f picked") 30 (List.length faulty);
        Alcotest.(check int)
          (name ^ ": distinct")
          30
          (List.length (List.sort_uniq compare faulty));
        List.iter
          (fun v -> Alcotest.(check bool) (name ^ ": in range") true (v >= 0 && v < 100))
          faulty
      end)
    (Strategy.all ())

let test_none_and_dormant_never_crash () =
  let rng = Rng.create 2 in
  List.iter
    (fun make ->
      let adv = make () in
      for round = 0 to 20 do
        let v =
          view ~round ~n:10
            ~alive_faulty:[ node_view 1; node_view 2 ]
            ~observations:(Array.make 10 Observation.bystander)
        in
        Alcotest.(check int) "no crashes" 0 (List.length (adv.Adversary.decide_crashes rng v))
      done)
    [ Strategy.none; Strategy.dormant ]

let test_eager_crashes_everyone_at_zero () =
  let rng = Rng.create 3 in
  let adv = Strategy.eager () in
  let v0 =
    view ~round:0 ~n:10
      ~alive_faulty:[ node_view 1; node_view 4; node_view 7 ]
      ~observations:(Array.make 10 Observation.bystander)
  in
  let crashes = adv.Adversary.decide_crashes rng v0 in
  Alcotest.(check (list int)) "all faulty at round 0" [ 1; 4; 7 ]
    (List.sort compare (List.map fst crashes));
  List.iter
    (fun (_, rule) ->
      Alcotest.(check bool) "drop all" true (rule = Adversary.Drop_all))
    crashes;
  let v1 =
    view ~round:1 ~n:10 ~alive_faulty:[ node_view 2 ]
      ~observations:(Array.make 10 Observation.bystander)
  in
  Alcotest.(check int) "nothing later" 0 (List.length (adv.Adversary.decide_crashes rng v1))

let test_targeted_min_rank_picks_smallest_candidate () =
  let rng = Rng.create 4 in
  let adv = Strategy.targeted_min_rank ~period:4 () in
  let alive =
    [
      node_view ~role:Observation.Candidate ~rank:50 1;
      node_view ~role:Observation.Candidate ~rank:10 2;
      node_view ~role:Observation.Referee ~rank:1 3;
      node_view ~role:Observation.Candidate ~rank:99 4;
    ]
  in
  let v = view ~round:4 ~n:10 ~alive_faulty:alive ~observations:(Array.make 10 Observation.bystander) in
  (match adv.Adversary.decide_crashes rng v with
  | [ (node, _) ] -> Alcotest.(check int) "minimum-rank candidate" 2 node
  | other -> Alcotest.failf "expected one crash, got %d" (List.length other));
  (* Off-period rounds stay quiet. *)
  let v5 = view ~round:5 ~n:10 ~alive_faulty:alive ~observations:(Array.make 10 Observation.bystander) in
  Alcotest.(check int) "off-period quiet" 0 (List.length (adv.Adversary.decide_crashes rng v5))

let test_targeted_ignores_non_candidates () =
  let rng = Rng.create 5 in
  let adv = Strategy.targeted_min_rank () in
  let alive = [ node_view ~role:Observation.Referee ~rank:1 3; node_view ~rank:2 6 ] in
  let v = view ~round:0 ~n:10 ~alive_faulty:alive ~observations:(Array.make 10 Observation.bystander) in
  Alcotest.(check int) "no candidate, no crash" 0 (List.length (adv.Adversary.decide_crashes rng v))

let test_first_send_budget () =
  let rng = Rng.create 6 in
  let adv = Strategy.first_send ~budget_per_round:2 () in
  let sending = List.init 5 (fun i -> node_view ~pending:[ { Adversary.dst = 0; bits = 1 } ] i) in
  let v = view ~round:0 ~n:10 ~alive_faulty:sending ~observations:(Array.make 10 Observation.bystander) in
  Alcotest.(check int) "bounded per round" 2 (List.length (adv.Adversary.decide_crashes rng v));
  let quiet = List.init 5 (fun i -> node_view i) in
  let v2 = view ~round:1 ~n:10 ~alive_faulty:quiet ~observations:(Array.make 10 Observation.bystander) in
  Alcotest.(check int) "silent nodes spared" 0 (List.length (adv.Adversary.decide_crashes rng v2))

let test_silence_candidates () =
  let rng = Rng.create 7 in
  let adv = Strategy.silence_candidates () in
  let alive =
    [ node_view ~role:Observation.Candidate ~rank:5 1; node_view ~role:Observation.Referee 2 ]
  in
  let v = view ~round:3 ~n:10 ~alive_faulty:alive ~observations:(Array.make 10 Observation.bystander) in
  match adv.Adversary.decide_crashes rng v with
  | [ (1, Adversary.Drop_all) ] -> ()
  | _ -> Alcotest.fail "should crash exactly the candidate with Drop_all"

let test_scheduled_exact () =
  let rng = Rng.create 8 in
  let adv = Strategy.scheduled [ (3, 2, Adversary.Drop_all); (5, 4, Adversary.Keep_prefix 1) ] () in
  Alcotest.(check (list int)) "faulty = planned nodes" [ 3; 5 ]
    (List.sort compare (adv.Adversary.pick_faulty rng ~n:10 ~f:5));
  let at round =
    adv.Adversary.decide_crashes rng
      (view ~round ~n:10
         ~alive_faulty:[ node_view 3; node_view 5 ]
         ~observations:(Array.make 10 Observation.bystander))
  in
  Alcotest.(check int) "round 0 quiet" 0 (List.length (at 0));
  (match at 2 with
  | [ (3, Adversary.Drop_all) ] -> ()
  | _ -> Alcotest.fail "round 2 crashes node 3");
  match at 4 with
  | [ (5, Adversary.Keep_prefix 1) ] -> ()
  | _ -> Alcotest.fail "round 4 crashes node 5"

let test_random_crashes_eventually_crash () =
  (* With horizon h, a faulty node crashes each round w.p. 1/h: over many
     rounds most faulty nodes must crash. *)
  let rng = Rng.create 9 in
  let adv = Strategy.random_crashes ~horizon:10 () in
  let alive = ref (List.init 20 (fun i -> i)) in
  for round = 0 to 99 do
    let v =
      view ~round ~n:40
        ~alive_faulty:(List.map node_view !alive)
        ~observations:(Array.make 40 Observation.bystander)
    in
    let crashed = List.map fst (adv.Adversary.decide_crashes rng v) in
    alive := List.filter (fun i -> not (List.mem i crashed)) !alive
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most crashed within 100 rounds (left %d)" (List.length !alive))
    true
    (List.length !alive <= 2)

(* The random adversary draws once per alive id but allocates only for
   the nodes it crashes: its per-round cost must not scale with f in
   words allocated. *)
let test_random_crashes_allocation () =
  let n = 131072 and alive = 65536 in
  let v =
    view ~round:0 ~n
      ~alive_faulty:(List.init alive (fun i -> node_view (2 * i)))
      ~observations:(Array.make n Observation.bystander)
  in
  let adv = Strategy.random_crashes () in
  let rng = Rng.create 10 in
  let before = Gc.minor_words () in
  let crashes = adv.Adversary.decide_crashes rng v in
  let words = Gc.minor_words () -. before in
  let count = List.length crashes in
  Alcotest.(check bool) "some crash" true (count > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d crashes of %d alive" words count alive)
    true
    (words < float_of_int (32 * (count + 1)))

let test_all_returns_every_strategy () =
  let names = List.map fst (Strategy.all ()) in
  Alcotest.(check int) "seven strategies" 7 (List.length names);
  Alcotest.(check int) "distinct names" 7 (List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "fault"
    [
      ( "selection",
        [
          Alcotest.test_case "budget respected" `Quick test_pick_faulty_budget;
          Alcotest.test_case "registry" `Quick test_all_returns_every_strategy;
        ] );
      ( "timing",
        [
          Alcotest.test_case "none/dormant quiet" `Quick test_none_and_dormant_never_crash;
          Alcotest.test_case "eager at round 0" `Quick test_eager_crashes_everyone_at_zero;
          Alcotest.test_case "random eventually" `Quick test_random_crashes_eventually_crash;
          Alcotest.test_case "random allocates per crash" `Quick test_random_crashes_allocation;
          Alcotest.test_case "scheduled exact" `Quick test_scheduled_exact;
        ] );
      ( "targeting",
        [
          Alcotest.test_case "min-rank candidate" `Quick test_targeted_min_rank_picks_smallest_candidate;
          Alcotest.test_case "non-candidates spared" `Quick test_targeted_ignores_non_candidates;
          Alcotest.test_case "first-send budget" `Quick test_first_send_budget;
          Alcotest.test_case "silence candidates" `Quick test_silence_candidates;
        ] );
    ]
