module Adversary = Ftc_sim.Adversary
module Observation = Ftc_sim.Observation
module Rng = Ftc_rng.Rng
module Dist = Ftc_rng.Dist

let uniform_faulty rng ~n ~f = Array.to_list (Dist.sample_without_replacement rng ~n ~k:f)

let none () = Adversary.none

let dormant () =
  {
    Adversary.name = "dormant";
    pick_faulty = uniform_faulty;
    decide_crashes = (fun _ _ -> []);
  }

let eager () =
  {
    Adversary.name = "eager";
    pick_faulty = uniform_faulty;
    decide_crashes =
      (fun _ view ->
        if view.Adversary.round = 0 then
          Adversary.filter_alive view (fun _ -> Some Adversary.Drop_all)
        else []);
  }

let random_crashes ?(drop_prob = 0.5) ?(horizon = 256) () =
  (* Crash rounds are drawn lazily, one geometric-free way: each alive
     faulty node crashes this round with probability 1/horizon, giving a
     near-uniform crash time over the first [horizon] rounds. *)
  let per_round_prob = 1. /. float_of_int (max 1 horizon) in
  let crash = Some (Adversary.Drop_random drop_prob) in
  {
    Adversary.name = "random";
    pick_faulty = uniform_faulty;
    decide_crashes =
      (fun rng view ->
        Adversary.filter_alive view (fun _ ->
            if Dist.bernoulli rng per_round_prob then crash else None));
  }

let targeted_min_rank ?(period = 4) () =
  {
    Adversary.name = "targeted-min-rank";
    pick_faulty = uniform_faulty;
    decide_crashes =
      (fun _ view ->
        if view.Adversary.round mod period <> 0 then []
        else begin
          (* Find the alive faulty candidate with the smallest rank; kill
             it mid-send so only part of the committee hears from it. *)
          let best = ref None in
          for j = 0 to view.Adversary.alive_count - 1 do
            let node = view.Adversary.alive.(j) in
            let obs = view.Adversary.all_observations.(node) in
            match (obs.Observation.role, obs.Observation.rank) with
            | Observation.Candidate, Some rank -> (
                match !best with
                | Some (_, best_rank) when best_rank <= rank -> ()
                | _ -> best := Some (node, rank))
            | _ -> ()
          done;
          match !best with
          | None -> []
          | Some (node, _) -> [ (node, Adversary.Drop_random 0.5) ]
        end);
  }

let first_send ?(budget_per_round = 3) () =
  {
    Adversary.name = "first-send";
    pick_faulty = uniform_faulty;
    decide_crashes =
      (fun _ view ->
        let taken = ref 0 in
        Adversary.filter_alive view (fun node ->
            if !taken < budget_per_round && view.Adversary.pending_of node <> [] then begin
              incr taken;
              Some (Adversary.Drop_random 0.5)
            end
            else None));
  }

let silence_candidates () =
  {
    Adversary.name = "silence-candidates";
    pick_faulty = uniform_faulty;
    decide_crashes =
      (fun _ view ->
        Adversary.filter_alive view (fun node ->
            match view.Adversary.all_observations.(node).Observation.role with
            | Observation.Candidate -> Some Adversary.Drop_all
            | Observation.Referee | Observation.Bystander | Observation.Coordinator -> None));
  }

let check_entry (v, r, rule) =
  if v < 0 then Error (Printf.sprintf "negative node %d" v)
  else if r < 0 then Error (Printf.sprintf "node %d: negative round %d" v r)
  else
    match rule with
    | Adversary.Drop_all | Adversary.Drop_none -> Ok ()
    | Adversary.Drop_random p ->
        if p < 0. || p > 1. then
          Error (Printf.sprintf "node %d: Drop_random probability %g outside [0,1]" v p)
        else Ok ()
    | Adversary.Keep_prefix k ->
        if k < 0 then Error (Printf.sprintf "node %d: negative Keep_prefix %d" v k) else Ok ()

let plan_nodes plan = List.sort_uniq compare (List.map (fun (v, _, _) -> v) plan)

let check_structure plan =
  let rec first_error = function
    | [] -> Ok ()
    | e :: rest -> ( match check_entry e with Error _ as err -> err | Ok () -> first_error rest)
  in
  match first_error plan with
  | Error _ as err -> err
  | Ok () ->
      let nodes = List.map (fun (v, _, _) -> v) plan in
      if List.length (List.sort_uniq compare nodes) <> List.length nodes then
        Error "a node is scheduled to crash more than once"
      else Ok ()

let validate_plan ~n ~f ~max_round plan =
  match check_structure plan with
  | Error _ as err -> err
  | Ok () ->
      let nodes = plan_nodes plan in
      if List.exists (fun v -> v >= n) nodes then
        Error (Printf.sprintf "plan crashes node >= n = %d" n)
      else if List.length nodes > f then
        Error
          (Printf.sprintf "plan crashes %d nodes, fault budget is %d" (List.length nodes) f)
      else if List.exists (fun (_, r, _) -> r > max_round) plan then
        Error (Printf.sprintf "plan schedules a crash after round %d" max_round)
      else Ok ()

let scheduled plan () =
  (match check_structure plan with
  | Ok () -> ()
  | Error e -> invalid_arg ("Strategy.scheduled: " ^ e));
  let nodes = plan_nodes plan in
  {
    Adversary.name = "scheduled";
    pick_faulty =
      (fun _ ~n ~f ->
        (* n and f are only known here; failing loudly beats surfacing
           budget overruns as accumulated engine violations. *)
        (match validate_plan ~n ~f ~max_round:max_int plan with
        | Ok () -> ()
        | Error e -> invalid_arg ("Strategy.scheduled: " ^ e));
        nodes);
    decide_crashes =
      (fun _ view ->
        List.filter_map
          (fun (v, r, rule) -> if r = view.Adversary.round then Some (v, rule) else None)
          plan);
  }

let all () =
  [
    ("none", none);
    ("dormant", dormant);
    ("eager", eager);
    ("random", (fun () -> random_crashes ()));
    ("targeted-min-rank", (fun () -> targeted_min_rank ()));
    ("first-send", (fun () -> first_send ()));
    ("silence-candidates", silence_candidates);
  ]
