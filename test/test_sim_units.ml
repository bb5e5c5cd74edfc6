(* Unit tests for the small simulator modules: Decision, Observation,
   Metrics, Trace, the Fanout broadcast helper, and the network port
   table against per-node reference tables. *)

module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Metrics = Ftc_sim.Metrics
module Trace = Ftc_sim.Trace
module Fanout = Ftc_sim.Fanout
module Protocol = Ftc_sim.Protocol
module Ports = Ftc_sim.Ports
module Rng = Ftc_rng.Rng

let test_decision_equal () =
  let open Decision in
  let all = [ Undecided; Elected; Not_elected; Follower 1; Follower 2; Agreed 0; Agreed 1 ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          Alcotest.(check bool)
            (Printf.sprintf "equal iff same (%d,%d)" i j)
            (i = j) (equal a b))
        all)
    all

let test_decision_to_string () =
  Alcotest.(check string) "undecided" "undecided" (Decision.to_string Decision.Undecided);
  Alcotest.(check string) "agreed" "agreed(1)" (Decision.to_string (Decision.Agreed 1));
  Alcotest.(check string) "follower" "follower(9)" (Decision.to_string (Decision.Follower 9))

let test_observation_default () =
  Alcotest.(check bool) "bystander role" true
    (Observation.bystander.Observation.role = Observation.Bystander);
  Alcotest.(check bool) "no rank" true (Observation.bystander.Observation.rank = None);
  Alcotest.(check bool) "undecided" false Observation.bystander.Observation.has_decided

let test_observation_pp () =
  let s = Format.asprintf "%a" Observation.pp Observation.bystander in
  Alcotest.(check bool) "mentions role" true
    (Astring.String.is_infix ~affix:"bystander" s)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.record_send m ~round:0 ~bits:10 ~delivered:true;
  Metrics.record_send m ~round:0 ~bits:5 ~delivered:false;
  Metrics.record_send m ~round:2 ~bits:1 ~delivered:true;
  Metrics.record_violation m;
  Metrics.finish m ~rounds:3;
  Alcotest.(check int) "sent" 3 m.Metrics.msgs_sent;
  Alcotest.(check int) "dropped" 1 m.Metrics.msgs_dropped;
  Alcotest.(check int) "bits" 16 m.Metrics.bits_sent;
  Alcotest.(check int) "violations" 1 m.Metrics.congest_violations;
  Alcotest.(check int) "rounds" 3 m.Metrics.rounds_used;
  Alcotest.(check (array int)) "per-round" [| 2; 0; 1 |] m.Metrics.per_round_msgs

let test_metrics_per_round_growth () =
  (* Rounds beyond the initial capacity must not be lost. *)
  let m = Metrics.create () in
  Metrics.record_send m ~round:500 ~bits:1 ~delivered:true;
  Metrics.finish m ~rounds:501;
  Alcotest.(check int) "late round recorded" 1 m.Metrics.per_round_msgs.(500);
  Alcotest.(check int) "length trimmed" 501 (Array.length m.Metrics.per_round_msgs)

let test_metrics_finish_rounds_zero () =
  (* A run stopped at round boundary 0 must keep its round-0 sends:
     finish ~rounds:0 used to truncate the per-round view to empty. *)
  let m = Metrics.create () in
  Metrics.record_send m ~round:0 ~bits:4 ~delivered:true;
  Metrics.record_send m ~round:0 ~bits:4 ~delivered:true;
  Metrics.finish m ~rounds:0;
  Alcotest.(check (array int)) "round-0 sends survive" [| 2 |] m.Metrics.per_round_msgs;
  Alcotest.(check (array int)) "bits view too" [| 8 |] m.Metrics.per_round_bits

let test_metrics_per_round_drops () =
  (* The drop view reconciles with the aggregates round by round:
     crash drops + link losses + unroutable sends, at their rounds. *)
  let m = Metrics.create () in
  Metrics.record_send m ~round:0 ~bits:1 ~delivered:false;
  Metrics.record_link_loss m ~round:1 ~bits:1;
  Metrics.record_unroutable m ~round:2;
  Metrics.record_send m ~round:2 ~bits:1 ~delivered:true;
  Metrics.finish m ~rounds:3;
  Alcotest.(check (array int)) "drops per round" [| 1; 1; 1 |] m.Metrics.per_round_drops;
  Alcotest.(check int) "unroutable counted" 1 m.Metrics.msgs_unroutable;
  Alcotest.(check int) "unroutable not sent" 3 m.Metrics.msgs_sent;
  Alcotest.(check int)
    "aggregate = sum of drop view"
    (m.Metrics.msgs_dropped + m.Metrics.msgs_lost_link + m.Metrics.msgs_unroutable)
    (Array.fold_left ( + ) 0 m.Metrics.per_round_drops)

let test_metrics_sparkline () =
  Alcotest.(check string) "zero is _" "_" (Metrics.sparkline [| 0 |]);
  Alcotest.(check string) "max is #" "_#" (Metrics.sparkline [| 0; 9 |]);
  Alcotest.(check string) "empty" "" (Metrics.sparkline [||]);
  let s = Metrics.sparkline [| 0; 1; 5; 10 |] in
  Alcotest.(check int) "one cell per round" 4 (String.length s);
  Alcotest.(check bool) "pp carries it" true
    (let m = Metrics.create () in
     Metrics.record_send m ~round:0 ~bits:1 ~delivered:true;
     Metrics.finish m ~rounds:1;
     Astring.String.is_infix ~affix:"per-round msgs" (Format.asprintf "%a" Metrics.pp m))

let test_trace_order_and_length () =
  let t = Trace.create () in
  let e1 = Trace.Send { round = 0; src = 1; dst = 2; bits = 3; delivered = true } in
  let e2 = Trace.Crash { round = 1; node = 1 } in
  Trace.add t e1;
  Trace.add t e2;
  Alcotest.(check int) "length" 2 (Trace.length t);
  match Trace.events t with
  | [ a; b ] ->
      Alcotest.(check bool) "chronological order" true (a = e1 && b = e2)
  | _ -> Alcotest.fail "two events expected"

let test_trace_pp_event () =
  let s =
    Format.asprintf "%a" Trace.pp_event
      (Trace.Send { round = 3; src = 1; dst = 2; bits = 7; delivered = false })
  in
  Alcotest.(check bool) "mentions loss" true (Astring.String.is_infix ~affix:"lost" s)

let test_fanout_counts () =
  let acts = Fanout.broadcast ~n:10 ~known_ports:[ 0; 3; 5 ] "x" in
  Alcotest.(check int) "n-1 actions" 9 (List.length acts);
  let ports, fresh =
    List.partition (fun a -> match a.Protocol.dest with Protocol.Port _ -> true | _ -> false) acts
  in
  Alcotest.(check int) "known ports used" 3 (List.length ports);
  Alcotest.(check int) "fresh for the rest" 6 (List.length fresh);
  List.iter
    (fun (a : string Protocol.action) ->
      Alcotest.(check string) "payload carried" "x" a.Protocol.payload)
    acts

let test_fanout_all_known () =
  let acts = Fanout.broadcast ~n:4 ~known_ports:[ 0; 1; 2 ] () in
  Alcotest.(check int) "no fresh needed" 3 (List.length acts)

let test_fanout_none_known () =
  let acts = Fanout.broadcast ~n:4 ~known_ports:[] () in
  Alcotest.(check int) "all fresh" 3 (List.length acts);
  List.iter
    (fun (a : unit Protocol.action) ->
      Alcotest.(check bool) "fresh dest" true (a.Protocol.dest = Protocol.Fresh_port))
    acts

(* Reference model for the network port table: every operation the
   engines perform on [Ports.Net] is mirrored on a per-node [Ports.t]
   driven by a twin rng, and must return the same answer and leave both
   rngs at the same point of their streams. A hot set of nodes crosses
   the 7 -> 8 inline/spill boundary; one broadcaster per run opens fresh
   ports until exhaustion, across the n/2 complement switch, sometimes
   drawing a fresh peer without opening it so the complement can run
   dry and be rebuilt. *)
let ports_model_run ~dry ~n ~seed =
  let ops = Rng.create ((seed * 7919) + n) in
  let rng_ref = Rng.create seed and rng_net = Rng.create seed in
  let refs = Array.init n (fun _ -> Ports.create ()) in
  let net = Ports.Net.make n in
  let step = ref 0 in
  let ctx what = Printf.sprintf "n=%d seed=%d step %d: %s" n seed !step what in
  let same_stream () =
    Alcotest.(check int64)
      (ctx "wiring rng streams")
      (Rng.bits64 (Rng.copy rng_ref))
      (Rng.bits64 (Rng.copy rng_net))
  in
  let fresh ~opening i =
    let want = Ports.fresh_peer rng_ref refs.(i) ~n ~self:i in
    let got = Ports.Net.fresh_peer rng_net net ~self:i in
    Alcotest.(check (option int)) (ctx (Printf.sprintf "fresh_peer %d" i)) want got;
    (match want with
    | Some peer when opening ->
        Alcotest.(check int)
          (ctx (Printf.sprintf "sender port_to %d -> %d" i peer))
          (Ports.port_to refs.(i) peer) (Ports.Net.port_to net i peer)
    | _ -> ());
    same_stream ();
    want
  in
  let receive i =
    let j = (i + 1 + Rng.int ops (n - 1)) mod n in
    Alcotest.(check int)
      (ctx (Printf.sprintf "receiver port_to %d <- %d" i j))
      (Ports.port_to refs.(i) j) (Ports.Net.port_to net i j)
  in
  let lookup i =
    let p = Rng.int ops (Ports.count refs.(i) + 3) - 1 in
    Alcotest.(check int)
      (ctx (Printf.sprintf "peer_of_port %d %d" i p))
      (Ports.peer_of_port_int refs.(i) p) (Ports.Net.peer_of_port net i p)
  in
  let count i =
    Alcotest.(check int) (ctx (Printf.sprintf "count %d" i)) (Ports.count refs.(i))
      (Ports.Net.count net i)
  in
  let hot = [| 0; 1 mod n; n - 1; n / 2 |] in
  for _ = 1 to 40 * min n 100 do
    incr step;
    let i = if Rng.int ops 4 > 0 then hot.(Rng.int ops (Array.length hot)) else Rng.int ops n in
    match Rng.int ops 10 with
    | 0 | 1 | 2 | 3 | 4 -> ignore (fresh ~opening:(Rng.int ops 10 > 0) i)
    | 5 | 6 -> receive i
    | 7 | 8 -> lookup i
    | _ -> count i
  done;
  let b = seed mod n in
  let rec broadcast () =
    incr step;
    if Rng.int ops 6 = 0 then receive b;
    match fresh ~opening:(Rng.int ops 8 > 0) b with
    | Some _ -> broadcast ()
    | None when Ports.Net.count net b < n - 1 ->
        (* The complement ran dry on peers drawn but never opened; the
           next draw rebuilds it. *)
        incr dry;
        broadcast ()
    | None -> ()
  in
  broadcast ();
  Alcotest.(check (option int)) (ctx "stays exhausted") None (fresh ~opening:true b);
  for i = 0 to n - 1 do
    count i;
    for p = 0 to Ports.count refs.(i) - 1 do
      Alcotest.(check int) (ctx "final tables") (Ports.peer_of_port_int refs.(i) p)
        (Ports.Net.peer_of_port net i p)
    done
  done;
  net

let test_ports_model () =
  let dry = ref 0 in
  List.iter
    (fun n ->
      let spilled = ref 0 in
      for seed = 1 to 8 do
        let net = ports_model_run ~dry ~n ~seed in
        if net.Ports.Net.spill_len > 0 then incr spilled
      done;
      (* From n = 3 up a broadcaster spills when it draws a fresh peer
         at n/2 ports, unless received messages fill its table first. *)
      if n >= 3 then
        Alcotest.(check bool) (Printf.sprintf "n=%d: spills exercised" n) true (!spilled > 0))
    [ 2; 3; 4; 5; 8; 16; 1024 ];
  Alcotest.(check bool) "complement rebuilds exercised" true (!dry > 0)

(* The boundary itself, without randomness: seven ports stay inline, the
   eighth spills, and every port keeps its peer. *)
let test_ports_spill_boundary () =
  let net = Ports.Net.make 64 in
  for k = 1 to 7 do
    Alcotest.(check int) "inline port" (k - 1) (Ports.Net.port_to net 5 (10 * k))
  done;
  Alcotest.(check int) "still inline" 0 net.Ports.Net.spill_len;
  Alcotest.(check int) "known port" 3 (Ports.Net.port_to net 5 40);
  Alcotest.(check int) "8th port" 7 (Ports.Net.port_to net 5 3);
  Alcotest.(check int) "spilled" 1 net.Ports.Net.spill_len;
  Alcotest.(check int) "count" 8 (Ports.Net.count net 5);
  for k = 1 to 7 do
    Alcotest.(check int) "replayed in port order" (10 * k) (Ports.Net.peer_of_port net 5 (k - 1));
    Alcotest.(check int) "same port after spill" (k - 1) (Ports.Net.port_to net 5 (10 * k))
  done;
  Alcotest.(check int) "unknown port" (-1) (Ports.Net.peer_of_port net 5 8);
  Alcotest.(check int) "neighbour untouched" 0 (Ports.Net.count net 6)

let () =
  Alcotest.run "sim-units"
    [
      ( "decision",
        [
          Alcotest.test_case "equal" `Quick test_decision_equal;
          Alcotest.test_case "to_string" `Quick test_decision_to_string;
        ] );
      ( "observation",
        [
          Alcotest.test_case "default" `Quick test_observation_default;
          Alcotest.test_case "pp" `Quick test_observation_pp;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "per-round growth" `Quick test_metrics_per_round_growth;
          Alcotest.test_case "finish at rounds=0" `Quick test_metrics_finish_rounds_zero;
          Alcotest.test_case "per-round drops" `Quick test_metrics_per_round_drops;
          Alcotest.test_case "sparkline" `Quick test_metrics_sparkline;
        ] );
      ( "trace",
        [
          Alcotest.test_case "order" `Quick test_trace_order_and_length;
          Alcotest.test_case "pp" `Quick test_trace_pp_event;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "counts" `Quick test_fanout_counts;
          Alcotest.test_case "all known" `Quick test_fanout_all_known;
          Alcotest.test_case "none known" `Quick test_fanout_none_known;
        ] );
      ( "ports",
        [
          Alcotest.test_case "network table = per-node reference" `Quick test_ports_model;
          Alcotest.test_case "7 -> 8 spill boundary" `Quick test_ports_spill_boundary;
        ] );
    ]
