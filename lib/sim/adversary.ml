type drop_rule = Drop_all | Drop_none | Drop_random of float | Keep_prefix of int

type outgoing = { dst : int; bits : int }

type round_view = {
  round : int;
  n : int;
  alive : int array;
  alive_count : int;
  pending_of : int -> outgoing list;
  all_observations : Observation.t array;
}

type t = {
  name : string;
  pick_faulty : Ftc_rng.Rng.t -> n:int -> f:int -> int list;
  decide_crashes : Ftc_rng.Rng.t -> round_view -> (int * drop_rule) list;
}

let filter_alive view f =
  let acc = ref [] in
  for j = 0 to view.alive_count - 1 do
    let i = Array.unsafe_get view.alive j in
    match f i with Some rule -> acc := (i, rule) :: !acc | None -> ()
  done;
  List.rev !acc

let none =
  {
    name = "none";
    pick_faulty = (fun _ ~n:_ ~f:_ -> []);
    decide_crashes = (fun _ _ -> []);
  }
