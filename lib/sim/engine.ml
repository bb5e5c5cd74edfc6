module Rng = Ftc_rng.Rng

type config = {
  n : int;
  alpha : float;
  seed : int;
  inputs : int array option;
  adversary : Adversary.t;
  link : Link.t;
  queue : Queue_model.config option;
  congest_limit : int option;
  record_trace : bool;
  max_rounds_override : int option;
  watchdog : (unit -> bool) option;
  round_clock : (unit -> int64) option;
}

type result = {
  decisions : Decision.t array;
  observations : Observation.t array;
  faulty : bool array;
  crashed : bool array;
  crash_round : int array;
  rounds_used : int;
  timed_out : bool;
  watchdog_expired : bool;
  metrics : Metrics.t;
  trace : Trace.t option;
  violations : Violation.t list;
  round_ns : int64 array;
}

let default_config ~n ~alpha ~seed =
  {
    n;
    alpha;
    seed;
    inputs = None;
    adversary = Adversary.none;
    link = Link.reliable;
    queue = None;
    congest_limit = Some (Congest.default_limit ~n);
    record_trace = false;
    max_rounds_override = None;
    watchdog = None;
    round_clock = None;
  }

let max_faulty ~n ~alpha =
  let non_faulty = int_of_float (ceil (alpha *. float_of_int n)) in
  max 0 (n - min n non_faulty)

type 'msg send = {
  src : int;
  dst : int;
  bits : int;
  payload : 'msg;
  mutable dropped : bool;  (* lost to the sender's crash *)
  mutable queue_dropped : bool;  (* dropped by the destination's ingress queue *)
  mutable link_dropped : bool;  (* lost on a live link *)
  mutable ecn : bool;  (* congestion-marked by the ECN queue discipline *)
  mutable from_port : int;  (* receiver-side port, set at delivery accounting *)
}

module Make (P : Protocol.S) = struct
  let run config =
    let n = config.n in
    if n < 2 then invalid_arg "Engine.run: need at least 2 nodes";
    let root = Rng.create config.seed in
    let node_rngs = Rng.split_n root n in
    let wiring_rng = Rng.split root in
    let adv_rng = Rng.split root in
    (* Split last so configs without link faults reproduce the streams of
       runs recorded before the link stage existed; the queue stream
       after that again, for the same reason. *)
    let link_rng = Rng.split root in
    let queue_rng = Rng.split root in
    let violations = ref [] in
    let violation v = violations := v :: !violations in
    let inputs =
      match config.inputs with
      | Some a ->
          if Array.length a <> n then invalid_arg "Engine.run: inputs length <> n";
          a
      | None -> Array.make n 0
    in
    let ctxs =
      Array.init n (fun i ->
          {
            Protocol.n;
            alpha = config.alpha;
            input = inputs.(i);
            rng = node_rngs.(i);
            self = (match P.knowledge with `KT1 -> Some i | `KT0 -> None);
          })
    in
    let states = Array.init n (fun i -> P.init ctxs.(i)) in
    let ports = Ports.Net.make n in
    (* Faulty set. *)
    let f_budget = max_faulty ~n ~alpha:config.alpha in
    let faulty = Array.make n false in
    let chosen = config.adversary.Adversary.pick_faulty adv_rng ~n ~f:f_budget in
    let chosen_count = ref 0 in
    List.iter
      (fun v ->
        if v < 0 || v >= n then violation (Violation.Faulty_pick_out_of_range { node = v })
        else if faulty.(v) then violation (Violation.Faulty_pick_duplicate { node = v })
        else begin
          faulty.(v) <- true;
          incr chosen_count
        end)
      chosen;
    if !chosen_count > f_budget then
      violation (Violation.Faulty_budget_exceeded { picked = !chosen_count; budget = f_budget });
    let crashed = Array.make n false in
    let crash_round = Array.make n (-1) in
    let alive i = not crashed.(i) in
    let metrics = Metrics.create () in
    let trace = if config.record_trace then Some (Trace.create ()) else None in
    let trace_add e = match trace with Some t -> Trace.add t e | None -> () in
    (* Inboxes are kept in arrival order (the delivery pass below conses
       in reverse), so step consumes them without a per-round reversal. *)
    let inboxes : P.msg Protocol.incoming list array = Array.make n [] in
    let max_rounds =
      match config.max_rounds_override with
      | Some r -> r
      | None -> P.max_rounds ~n ~alpha:config.alpha
    in
    let congest_key src dst = (src * n) + dst in

    let resolve_dest ~round src dest =
      match dest with
      | Protocol.Fresh_port -> (
          (* Register the new port on the sender side so the protocol can
             re-use it: fresh ports are numbered consecutively from the
             sender's current port count, and the peer's later replies
             arrive through the same binding. Exhaustion (all n-1 peers
             already known) drops the send — the only way it can happen is
             a broadcast over-approximating its fresh count — but the drop
             is counted and traced, never silent. *)
          match Ports.Net.fresh_peer wiring_rng ports ~self:src with
          | None ->
              Metrics.record_unroutable metrics ~round;
              trace_add (Trace.Unroutable { round; node = src });
              None
          | Some peer ->
              let _port = Ports.Net.port_to ports src peer in
              Some peer)
      | Protocol.Port p ->
          let peer = Ports.Net.peer_of_port ports src p in
          if peer >= 0 then Some peer
          else begin
            violation (Violation.Unknown_port { node = src; port = p });
            None
          end
      | Protocol.Node d ->
          if P.knowledge = `KT0 then begin
            violation (Violation.Kt0_node_addressing { node = src; protocol = P.name });
            None
          end
          else if d < 0 || d >= n || d = src then begin
            violation (Violation.Invalid_destination { node = src; dst = d });
            None
          end
          else Some d
    in

    let round = ref 0 in
    let finished = ref false in
    let in_flight = ref false in
    (* Hot-path buffers reused across rounds: the per-round edge-bit table
       (cleared, never re-created, so its bucket array is allocated once)
       and the per-node send lists. *)
    let edge_bits : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let sends_by_node : P.msg send list array = Array.make n [] in
    (* Per-destination ingress-queue occupancy, reused across rounds. *)
    let queue_depth = Array.make n 0 in
    (* The adversary's round view: alive faulty ids, refilled each round,
       and each one's sends on demand. *)
    let alive_buf = Array.make n 0 in
    let pending_of i =
      List.map (fun s -> { Adversary.dst = s.dst; bits = s.bits }) sends_by_node.(i)
    in
    (* Iterate this round's sends in the order the combined send list used
       to be built: node 0..n-1, each node's sends in action order. *)
    let iter_sends f =
      for i = 0 to n - 1 do
        List.iter f sends_by_node.(i)
      done
    in
    (* Cooperative watchdog: polled once per round, between rounds, so a
       trial that overruns its wall-clock budget stops at a round boundary
       with a well-formed (partial) result. The engine stays pure — the
       clock lives in the closure the caller supplied. *)
    let watchdog_expired = ref false in
    let watchdog_fired () =
      match config.watchdog with
      | Some poll when poll () ->
          watchdog_expired := true;
          true
      | _ -> false
    in
    (* Optional round timing for telemetry: one clock read per round when
       armed, a single option match per round when not. Durations are
       collected in reverse and materialised once at the end; the
       simulation itself never reads the clock, so determinism of the
       computed result is untouched. *)
    let round_ns_rev = ref [] in
    let round_count = ref 0 in
    let round_started =
      ref (match config.round_clock with Some now -> now () | None -> 0L)
    in
    let record_round_time () =
      match config.round_clock with
      | None -> ()
      | Some now ->
          let t = now () in
          round_ns_rev := Int64.sub t !round_started :: !round_ns_rev;
          incr round_count;
          round_started := t
    in
    (* Sends of the most recent round: if the round budget runs out right
       after a sending round, those messages sit in inboxes for ever. *)
    while (not !finished) && !round < max_rounds && not (watchdog_fired ()) do
      let r = !round in
      (* 1. Step every live node on its inbox; collect sends. *)
      let total_sends = ref 0 in
      for i = 0 to n - 1 do
        sends_by_node.(i) <- [];
        if alive i then begin
          let inbox = inboxes.(i) in
          inboxes.(i) <- [];
          let state', actions = P.step ctxs.(i) states.(i) ~round:r ~inbox in
          states.(i) <- state';
          let resolved =
            List.filter_map
              (fun { Protocol.dest; payload } ->
                match resolve_dest ~round:r i dest with
                | None -> None
                | Some dst ->
                    incr total_sends;
                    Some
                      {
                        src = i;
                        dst;
                        bits = P.msg_bits ~n payload;
                        payload;
                        dropped = false;
                        queue_dropped = false;
                        link_dropped = false;
                        ecn = false;
                        from_port = -1;
                      })
              actions
          in
          sends_by_node.(i) <- resolved
        end
        else inboxes.(i) <- []
      done;
      (* 2. CONGEST accounting: flag each (edge, round) over budget once. *)
      (match config.congest_limit with
      | None -> ()
      | Some limit ->
          Hashtbl.clear edge_bits;
          iter_sends (fun s ->
              let key = congest_key s.src s.dst in
              let prev = Option.value ~default:0 (Hashtbl.find_opt edge_bits key) in
              let total = prev + s.bits in
              if prev <= limit && total > limit then Metrics.record_violation metrics;
              Hashtbl.replace edge_bits key total));
      (* 3. Adversary decides this round's crashes. *)
      let all_observations = Array.map P.observe states in
      let alive_count = ref 0 in
      for i = 0 to n - 1 do
        if faulty.(i) && alive i then begin
          alive_buf.(!alive_count) <- i;
          incr alive_count
        end
      done;
      let view =
        {
          Adversary.round = r;
          n;
          alive = alive_buf;
          alive_count = !alive_count;
          pending_of;
          all_observations;
        }
      in
      let crash_orders = config.adversary.Adversary.decide_crashes adv_rng view in
      List.iter
        (fun (v, rule) ->
          if v < 0 || v >= n then violation (Violation.Crash_out_of_range { round = r; node = v })
          else if not faulty.(v) then violation (Violation.Crash_non_faulty { round = r; node = v })
          else if crashed.(v) then violation (Violation.Crash_duplicate { round = r; node = v })
          else begin
            crashed.(v) <- true;
            crash_round.(v) <- r;
            trace_add (Trace.Crash { round = r; node = v });
            let mine = sends_by_node.(v) in
            (match rule with
            | Adversary.Drop_all -> List.iter (fun s -> s.dropped <- true) mine
            | Adversary.Drop_none -> ()
            | Adversary.Drop_random p ->
                List.iter (fun s -> if Ftc_rng.Dist.bernoulli adv_rng p then s.dropped <- true) mine
            | Adversary.Keep_prefix k ->
                List.iteri (fun idx s -> if idx >= k then s.dropped <- true) mine)
          end)
        crash_orders;
      (* 3b. Ingress queues: every message the crash stage left on the
         wire arrives at its destination's bounded access-link queue in
         deterministic send order. Occupancy counts messages the queue
         already accepted this round (queues drain fully between rounds);
         the discipline drops, marks, or admits each arrival. Runs
         without a queue touch neither the depth buffer nor the queue
         RNG stream. *)
      (match config.queue with
      | None -> ()
      | Some q ->
          Array.fill queue_depth 0 n 0;
          iter_sends (fun s ->
              if not s.dropped then begin
                let occupancy = queue_depth.(s.dst) in
                match Queue_model.decide q queue_rng ~occupancy with
                | Queue_model.Accept -> queue_depth.(s.dst) <- occupancy + 1
                | Queue_model.Mark ->
                    s.ecn <- true;
                    queue_depth.(s.dst) <- occupancy + 1
                | Queue_model.Drop -> s.queue_dropped <- true
              end);
          let peak = ref 0 in
          for i = 0 to n - 1 do
            if queue_depth.(i) > !peak then peak := queue_depth.(i)
          done;
          if !peak > 0 then Metrics.record_queue_depth metrics ~round:r ~depth:!peak);
      (* 4. Link faults: every message the crash and queue stages left on
         the wire traverses its (possibly lossy) link. Crash losses take
         precedence over queue drops, and queue drops over link losses: a
         message never reaches the stage after the one that lost it. *)
      if config.link != Link.reliable then
        iter_sends (fun s ->
            if not (s.dropped || s.queue_dropped) then
              let view =
                {
                  Link.round = r;
                  src = s.src;
                  dst = s.dst;
                  bits = s.bits;
                  observations = all_observations;
                }
              in
              if config.link.Link.drop link_rng view then s.link_dropped <- true);
      (* 5. Count, trace, and deliver. Two passes: the forward pass keeps
         the metric/trace/port-opening order of the old combined send
         list; the backward pass conses each delivery so every inbox ends
         up in arrival order directly — no [List.rev] per inbox per
         round. *)
      iter_sends (fun s ->
          if s.queue_dropped then begin
            Metrics.record_queue_drop metrics ~round:r ~bits:s.bits;
            trace_add
              (Trace.Send { round = r; src = s.src; dst = s.dst; bits = s.bits; delivered = false });
            trace_add (Trace.Queue_dropped { round = r; src = s.src; dst = s.dst; bits = s.bits })
          end
          else if s.link_dropped then begin
            Metrics.record_link_loss metrics ~round:r ~bits:s.bits;
            trace_add
              (Trace.Send { round = r; src = s.src; dst = s.dst; bits = s.bits; delivered = false });
            trace_add (Trace.Link_lost { round = r; src = s.src; dst = s.dst; bits = s.bits })
          end
          else begin
            let delivered = not s.dropped in
            Metrics.record_send metrics ~round:r ~bits:s.bits ~delivered;
            trace_add (Trace.Send { round = r; src = s.src; dst = s.dst; bits = s.bits; delivered });
            if delivered then begin
              s.from_port <- Ports.Net.port_to ports s.dst s.src;
              (* ECN marks count only on messages that actually arrive,
                 so the metric equals the marks receivers observe. *)
              if s.ecn then begin
                Metrics.record_ecn_mark metrics ~round:r;
                trace_add (Trace.Ecn_marked { round = r; src = s.src; dst = s.dst })
              end
            end
          end);
      let rec deliver_rev = function
        | [] -> ()
        | s :: rest ->
            deliver_rev rest;
            if s.from_port >= 0 && not (s.dropped || s.queue_dropped || s.link_dropped) then
              inboxes.(s.dst) <-
                { Protocol.from_port = s.from_port; payload = s.payload; ecn = s.ecn }
                :: inboxes.(s.dst)
      in
      for i = n - 1 downto 0 do
        deliver_rev sends_by_node.(i)
      done;
      (* 6. Early stop: network quiescent and every live node has decided. *)
      in_flight := !total_sends > 0;
      if !total_sends = 0 then begin
        let all_decided = ref true in
        for i = 0 to n - 1 do
          if alive i && P.decide states.(i) = Decision.Undecided then all_decided := false
        done;
        if !all_decided then finished := true
      end;
      record_round_time ();
      incr round
    done;
    Metrics.finish metrics ~rounds:!round;
    let round_ns =
      if !round_count = 0 then [||]
      else begin
        let a = Array.make !round_count 0L in
        let i = ref (!round_count - 1) in
        List.iter
          (fun d ->
            a.(!i) <- d;
            decr i)
          !round_ns_rev;
        a
      end
    in
    {
      decisions = Array.map P.decide states;
      observations = Array.map P.observe states;
      faulty;
      crashed;
      crash_round;
      rounds_used = !round;
      timed_out = (not !finished) && !in_flight && not !watchdog_expired;
      watchdog_expired = !watchdog_expired;
      metrics;
      trace;
      violations = List.rev !violations;
      round_ns;
    }
end
