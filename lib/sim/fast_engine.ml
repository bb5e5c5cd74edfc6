module Rng = Ftc_rng.Rng

(* Struct-of-arrays engine: same [Engine.config] in, same
   [Engine.result] out, bit-identical to the closure engine on every
   supported config (the differential suite in test/test_fast_engine.ml
   pins this). The round pipeline — step, CONGEST accounting, crashes,
   ingress queues, link faults, delivery — runs in exactly the classic
   order over exactly the same split rng streams; what changes is the
   representation: flat preallocated send buffers, Bigarray inboxes
   built by a counting sort, Bytes crash masks, and an event-driven
   active set so only nodes with work actually step. The counting sort
   takes its per-destination counts in the forward pass that already
   resolves each delivery's port, so it adds no random-access pass of
   its own.

   Stream identity argument, stage by stage:
   - rng tree: the same five [Rng.split]s off the same root, in the
     same order.
   - wiring: sends resolve through a {!Ports.Net} network table, the
     same structure the classic engine uses, at emit time; since nodes
     step in ascending order and each node's emits happen in classic
     action order, the sequence of [fresh_peer] draws on [wiring_rng]
     is identical. Receiver-side ports open in the forward pass of
     stage 5, in global send order, as in the classic engine.
   - adversary: the view holds the same data — the alive faulty ids in
     ascending order (one buffer, compacted in place after crashes),
     each one's sends in send order, and the protocol-maintained
     observation cache (see {!Fast_protocol.runtime.obs}), which equals
     [Array.map P.observe states] at every round boundary: entries are
     replaced at the exact event that changes them, and an unstepped
     node's observation cannot change.
   - queue/link: each surviving send is offered to the discipline / the
     link in global forward order, same as [iter_sends].
   Nodes skipped by the active set would have been classic no-ops (no
   actions, no state change, no rng draws — each fast protocol proves
   this for its own skips), so every stream sees the same draws. *)

type send_flags = Bytes.t

let f_dropped = 1 (* lost to the sender's crash *)
let f_queue_dropped = 2 (* dropped by the destination's ingress queue *)
let f_link_dropped = 4 (* lost on a live link *)
let f_ecn = 8 (* congestion-marked by the ECN queue discipline *)

let flag_test (b : send_flags) i f = Char.code (Bytes.unsafe_get b i) land f <> 0
let flag_set (b : send_flags) i f =
  Bytes.unsafe_set b i (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) lor f))

let ba_create len =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 len)

(* Every round's dead sends, inboxes and protocol messages die young, but
   whatever the minor GC promotes of them dies soon after in the major
   heap; at the default space_overhead (120) the major heap balloons
   into syscall-heavy growth before the collector catches up. A tighter
   overhead keeps it compact. One-way: never raise a user-tightened
   overhead. *)
let max_space_overhead = 80

let ensure_gc_tuning () =
  let g = Gc.get () in
  if g.Gc.space_overhead > max_space_overhead then
    Gc.set { g with Gc.space_overhead = max_space_overhead }

module Make (P : Fast_protocol.S) = struct
  let words = P.words

  let run (config : Engine.config) =
    let n = config.n in
    if n < 2 then invalid_arg "Engine.run: need at least 2 nodes";
    if n >= 65536 then ensure_gc_tuning ();
    let root = Rng.create config.seed in
    let node_rngs = Rng.split_n root n in
    let wiring_rng = Rng.split root in
    let adv_rng = Rng.split root in
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
    let ports = Ports.Net.make n in
    (* Faulty set. *)
    let f_budget = Engine.max_faulty ~n ~alpha:config.alpha in
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
    (* Ascending ids of the alive faulty nodes in [alive_ids.(0 ..
       !alive_len - 1)]: the adversary view's buffer, compacted in place
       after each round's crashes. *)
    let alive_ids = Array.make !chosen_count 0 in
    let alive_len = ref 0 in
    for i = 0 to n - 1 do
      if faulty.(i) then begin
        alive_ids.(!alive_len) <- i;
        incr alive_len
      end
    done;
    let crashed = Bytes.make n '\000' in
    let is_crashed i = Bytes.unsafe_get crashed i <> '\000' in
    let crash_round = Array.make n (-1) in
    let metrics = Metrics.create () in
    let trace = if config.record_trace then Some (Trace.create ()) else None in
    let trace_add e = match trace with Some t -> Trace.add t e | None -> () in
    (* Per-message call sites test this before building the event, so an
       untraced run allocates nothing for tracing. *)
    let tracing = trace <> None in
    let max_rounds =
      match config.max_rounds_override with
      | Some r -> r
      | None -> P.max_rounds ~n ~alpha:config.alpha
    in

    (* Starting capacity of the send buffer and the inbox. Both grow by
       doubling, so this only sets a run's fixed cost. Arrays of 1024
       entries are allocated outside the minor heap, and at n = 4 (one
       exhaustive-verify state) allocating them costs more than the run
       itself; four entries per node covers a small run's first rounds.
       From n = 256 up the capacity is 1024. *)
    let initial_cap = min 1024 (4 * n) in

    (* ---- Send buffer (struct of arrays, grows by doubling). ---- *)
    let s_cap = ref initial_cap in
    let s_len = ref 0 in
    let s_src = ref (Array.make !s_cap 0) in
    let s_dst = ref (Array.make !s_cap 0) in
    let s_bits = ref (Array.make !s_cap 0) in
    let s_fport = ref (Array.make !s_cap (-1)) in
    let s_flags = ref (Bytes.make !s_cap '\000') in
    let s_words = ref (Array.make (!s_cap * words) 0) in
    let grow_sends () =
      let cap' = !s_cap * 2 in
      let g a d =
        let a' = Array.make cap' d in
        Array.blit !a 0 a' 0 !s_cap;
        a := a'
      in
      g s_src 0;
      g s_dst 0;
      g s_bits 0;
      g s_fport (-1);
      let f' = Bytes.make cap' '\000' in
      Bytes.blit !s_flags 0 f' 0 !s_cap;
      s_flags := f';
      let w' = Array.make (cap' * words) 0 in
      Array.blit !s_words 0 w' 0 (!s_cap * words);
      s_words := w';
      s_cap := cap'
    in
    let push_send ~src ~dst ~bits w0 w1 w2 =
      if !s_len = !s_cap then grow_sends ();
      let i = !s_len in
      !s_src.(i) <- src;
      !s_dst.(i) <- dst;
      !s_bits.(i) <- bits;
      !s_fport.(i) <- -1;
      Bytes.unsafe_set !s_flags i '\000';
      let b = i * words in
      !s_words.(b) <- w0;
      if words > 1 then !s_words.(b + 1) <- w1;
      if words > 2 then !s_words.(b + 2) <- w2;
      s_len := i + 1
    in
    (* Per-node send ranges of the current round, validated by stamp.
       Only read for faulty nodes (crash drop rules, adversary views),
       so only their steps maintain them; [faulty_b] is the byte-mask
       twin of [faulty] for that hot-loop test. *)
    let snd_first = Array.make n 0 in
    let snd_end = Array.make n 0 in
    let snd_stamp = Array.make n (-1) in
    let faulty_b = Bytes.make n '\000' in
    Array.iter (fun i -> Bytes.set faulty_b i '\001') alive_ids;

    (* ---- Active set: nodes to step next round. ---- *)
    let pending_flag = Bytes.make n '\000' in
    let pending_buf = Array.make n 0 in
    let pending_len = ref 0 in
    let add_pending i =
      if Bytes.unsafe_get pending_flag i = '\000' then begin
        Bytes.unsafe_set pending_flag i '\001';
        pending_buf.(!pending_len) <- i;
        incr pending_len
      end
    in
    let active_buf = Array.make n 0 in
    let active_len = ref 0 in
    (* Drain the pending set into [active_buf] in ascending node order,
       dropping crashed nodes and clearing the flags. Sparse pending
       sets sort their buffer; dense ones scan the flag bytes. *)
    let build_active () =
      active_len := 0;
      if !pending_len > n / 8 then
        for i = 0 to n - 1 do
          if Bytes.unsafe_get pending_flag i <> '\000' then begin
            Bytes.unsafe_set pending_flag i '\000';
            if not (is_crashed i) then begin
              active_buf.(!active_len) <- i;
              incr active_len
            end
          end
        done
      else begin
        let sub = Array.sub pending_buf 0 !pending_len in
        Array.sort (fun (a : int) b -> compare a b) sub;
        Array.iter
          (fun i ->
            Bytes.unsafe_set pending_flag i '\000';
            if not (is_crashed i) then begin
              active_buf.(!active_len) <- i;
              incr active_len
            end)
          sub
      end;
      pending_len := 0
    in

    (* ---- Round inbox (counting sort over delivered sends). ---- *)
    let ib_start = Array.make n 0 in
    let ib_count = Array.make n 0 in
    let ib_ptr = Array.make n 0 in
    let touched = Array.make n 0 in
    let touched_len = ref 0 in
    let inbox_cap = ref initial_cap in
    let rt_inbox_words = ref (ba_create (!inbox_cap * words)) in
    let rt_inbox_port = ref (Array.make !inbox_cap (-1)) in

    (* ---- Emit context and the protocol runtime. ---- *)
    let cur_src = ref (-1) in
    let cur_round = ref 0 in
    let total_sends = ref 0 in
    let resolved ~dst w0 w1 w2 =
      incr total_sends;
      push_send ~src:!cur_src ~dst ~bits:(P.msg_bits ~n w0) w0 w1 w2
    in
    let emit_fresh w0 w1 w2 =
      let src = !cur_src in
      match Ports.Net.fresh_peer wiring_rng ports ~self:src with
      | None ->
          Metrics.record_unroutable metrics ~round:!cur_round;
          trace_add (Trace.Unroutable { round = !cur_round; node = src })
      | Some peer ->
          let _port = Ports.Net.port_to ports src peer in
          resolved ~dst:peer w0 w1 w2
    in
    let emit_port p w0 w1 w2 =
      let peer = Ports.Net.peer_of_port ports !cur_src p in
      if peer >= 0 then resolved ~dst:peer w0 w1 w2
      else violation (Violation.Unknown_port { node = !cur_src; port = p })
    in
    let emit_node d w0 w1 w2 =
      if P.knowledge = `KT0 then
        violation (Violation.Kt0_node_addressing { node = !cur_src; protocol = P.name })
      else if d < 0 || d >= n || d = !cur_src then
        violation (Violation.Invalid_destination { node = !cur_src; dst = d })
      else resolved ~dst:d w0 w1 w2
    in
    (* Live nodes whose decide is still [Undecided]; crossing zero with
       a quiescent network ends the run (classic stage 6). *)
    let live_undecided = ref 0 in
    (* Observation cache: filled by [P.create], kept current by the
       protocol itself (entries are replaced at the moment a node's
       observation changes), so the engine never polls [P.observe] in
       the round loop. *)
    let obs_cache = Array.make n Observation.bystander in
    let rt =
      {
        Fast_protocol.inbox_words = !rt_inbox_words;
        inbox_port = !rt_inbox_port;
        emit_fresh;
        emit_port;
        emit_node;
        port_count = Ports.Net.count ports;
        wake = add_pending;
        obs = obs_cache;
        note_decided = (fun _ -> decr live_undecided);
      }
    in
    let t = P.create ~n ~alpha:config.alpha ~inputs ~node_rngs rt in
    for i = 0 to n - 1 do
      if P.decide t i = Decision.Undecided then incr live_undecided
    done;

    (* ---- CONGEST accounting scratch (per-destination, stamp-keyed:
       sends are grouped by ascending src, so each (src, dst) edge is a
       contiguous run and one stamped accumulator per dst suffices). ---- *)
    let edge_acc = Array.make n 0 in
    let edge_stamp = Array.make n (-1) in
    let run_id = ref 0 in
    let pending_of i =
      if snd_stamp.(i) <> !cur_round then []
      else begin
        let dst = !s_dst and bits = !s_bits in
        let pending = ref [] in
        for k = snd_end.(i) - 1 downto snd_first.(i) do
          pending := { Adversary.dst = dst.(k); bits = bits.(k) } :: !pending
        done;
        !pending
      end
    in
    (* Per-destination ingress-queue occupancy, reused across rounds. *)
    let queue_depth = Array.make n 0 in

    let round = ref 0 in
    let finished = ref false in
    let in_flight = ref false in
    let watchdog_expired = ref false in
    let watchdog_fired () =
      match config.watchdog with
      | Some poll when poll () ->
          watchdog_expired := true;
          true
      | _ -> false
    in
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

    while (not !finished) && !round < max_rounds && not (watchdog_fired ()) do
      let r = !round in
      cur_round := r;
      (* 1. Step the active nodes (ascending) on their inboxes; nodes
         left out would have been classic no-ops. *)
      build_active ();
      s_len := 0;
      total_sends := 0;
      for a = 0 to !active_len - 1 do
        let i = active_buf.(a) in
        cur_src := i;
        if Bytes.unsafe_get faulty_b i <> '\000' then begin
          snd_first.(i) <- !s_len;
          snd_stamp.(i) <- r
        end;
        P.step t ~node:i ~round:r ~inbox_start:ib_start.(i) ~inbox_count:ib_count.(i);
        if Bytes.unsafe_get faulty_b i <> '\000' then snd_end.(i) <- !s_len
      done;
      let s_count = !s_len in
      let src = !s_src and dst = !s_dst and bits = !s_bits in
      let fport = !s_fport and flags = !s_flags in
      (* 2. CONGEST accounting: flag each (edge, round) over budget once. *)
      (match config.congest_limit with
      | None -> ()
      | Some limit ->
          let cur = ref (-1) in
          for k = 0 to s_count - 1 do
            if src.(k) <> !cur then begin
              cur := src.(k);
              incr run_id
            end;
            let d = dst.(k) in
            let prev = if edge_stamp.(d) = !run_id then edge_acc.(d) else 0 in
            let total = prev + bits.(k) in
            if prev <= limit && total > limit then Metrics.record_violation metrics;
            edge_acc.(d) <- total;
            edge_stamp.(d) <- !run_id
          done);
      (* 3. Adversary decides this round's crashes. *)
      let view =
        {
          Adversary.round = r;
          n;
          alive = alive_ids;
          alive_count = !alive_len;
          pending_of;
          all_observations = obs_cache;
        }
      in
      let crash_orders = config.adversary.Adversary.decide_crashes adv_rng view in
      List.iter
        (fun (v, rule) ->
          if v < 0 || v >= n then violation (Violation.Crash_out_of_range { round = r; node = v })
          else if not faulty.(v) then violation (Violation.Crash_non_faulty { round = r; node = v })
          else if is_crashed v then violation (Violation.Crash_duplicate { round = r; node = v })
          else begin
            Bytes.set crashed v '\001';
            crash_round.(v) <- r;
            if P.decide t v = Decision.Undecided then decr live_undecided;
            trace_add (Trace.Crash { round = r; node = v });
            if snd_stamp.(v) = r then begin
              let first = snd_first.(v) and last = snd_end.(v) - 1 in
              match rule with
              | Adversary.Drop_all ->
                  for k = first to last do
                    flag_set flags k f_dropped
                  done
              | Adversary.Drop_none -> ()
              | Adversary.Drop_random p ->
                  for k = first to last do
                    if Ftc_rng.Dist.bernoulli adv_rng p then flag_set flags k f_dropped
                  done
              | Adversary.Keep_prefix kp ->
                  for k = first + kp to last do
                    flag_set flags k f_dropped
                  done
            end
          end)
        crash_orders;
      if crash_orders <> [] then begin
        let live = ref 0 in
        for j = 0 to !alive_len - 1 do
          let i = alive_ids.(j) in
          if not (is_crashed i) then begin
            alive_ids.(!live) <- i;
            incr live
          end
        done;
        alive_len := !live
      end;
      (* 3b. Ingress queues, in deterministic global send order. *)
      (match config.queue with
      | None -> ()
      | Some q ->
          Array.fill queue_depth 0 n 0;
          for k = 0 to s_count - 1 do
            if not (flag_test flags k f_dropped) then begin
              let d = dst.(k) in
              let occupancy = queue_depth.(d) in
              match Queue_model.decide q queue_rng ~occupancy with
              | Queue_model.Accept -> queue_depth.(d) <- occupancy + 1
              | Queue_model.Mark ->
                  flag_set flags k f_ecn;
                  queue_depth.(d) <- occupancy + 1
              | Queue_model.Drop -> flag_set flags k f_queue_dropped
            end
          done;
          let peak = ref 0 in
          for i = 0 to n - 1 do
            if queue_depth.(i) > !peak then peak := queue_depth.(i)
          done;
          if !peak > 0 then Metrics.record_queue_depth metrics ~round:r ~depth:!peak);
      (* 4. Link faults over what the crash and queue stages left. *)
      if config.link != Link.reliable then
        for k = 0 to s_count - 1 do
          if Char.code (Bytes.unsafe_get flags k) land (f_dropped lor f_queue_dropped) = 0
          then begin
            let view =
              {
                Link.round = r;
                src = src.(k);
                dst = dst.(k);
                bits = bits.(k);
                observations = obs_cache;
              }
            in
            if config.link.Link.drop link_rng view then flag_set flags k f_link_dropped
          end
        done;
      (* 5. Count, trace, and deliver: the forward pass reproduces the
         classic metric/trace/port-opening order and counts each stored
         arrival per destination, then a counting sort lays each
         destination's arrivals out contiguously. Last round's counts
         are cleared first (only the touched entries). A delivery to a
         node crashed this round still opens its port, as in the
         classic engine, but is not stored: the classic engine conses
         it and clears the inbox unread at the next step. [fport] stays
         -1 for every send that is not stored. *)
      for j = 0 to !touched_len - 1 do
        ib_count.(touched.(j)) <- 0
      done;
      touched_len := 0;
      let delivered_count = ref 0 in
      let fw_msgs = ref 0 and fw_bits = ref 0 and fw_dropped = ref 0 in
      for k = 0 to s_count - 1 do
        let fl = Char.code (Bytes.unsafe_get flags k) in
        if fl land f_queue_dropped <> 0 then begin
          Metrics.record_queue_drop metrics ~round:r ~bits:bits.(k);
          if tracing then begin
            trace_add
              (Trace.Send
                 { round = r; src = src.(k); dst = dst.(k); bits = bits.(k); delivered = false });
            trace_add
              (Trace.Queue_dropped { round = r; src = src.(k); dst = dst.(k); bits = bits.(k) })
          end
        end
        else if fl land f_link_dropped <> 0 then begin
          Metrics.record_link_loss metrics ~round:r ~bits:bits.(k);
          if tracing then begin
            trace_add
              (Trace.Send
                 { round = r; src = src.(k); dst = dst.(k); bits = bits.(k); delivered = false });
            trace_add (Trace.Link_lost { round = r; src = src.(k); dst = dst.(k); bits = bits.(k) })
          end
        end
        else begin
          let delivered = fl land f_dropped = 0 in
          incr fw_msgs;
          fw_bits := !fw_bits + bits.(k);
          if not delivered then incr fw_dropped;
          if tracing then
            trace_add
              (Trace.Send { round = r; src = src.(k); dst = dst.(k); bits = bits.(k); delivered });
          if delivered then begin
            let d = dst.(k) in
            let p = Ports.Net.port_to ports d src.(k) in
            if not (is_crashed d) then begin
              fport.(k) <- p;
              if ib_count.(d) = 0 then begin
                touched.(!touched_len) <- d;
                incr touched_len
              end;
              ib_count.(d) <- ib_count.(d) + 1;
              incr delivered_count
            end;
            if fl land f_ecn <> 0 then begin
              Metrics.record_ecn_mark metrics ~round:r;
              if tracing then
                trace_add (Trace.Ecn_marked { round = r; src = src.(k); dst = dst.(k) })
            end
          end
        end
      done;
      Metrics.record_send_batch metrics ~round:r ~msgs:!fw_msgs ~bits:!fw_bits
        ~dropped:!fw_dropped;
      (* Counting sort into next round's inbox: lay out segments, then
         copy forward — forward order within a segment is arrival order,
         as in the classic engine. *)
      if !delivered_count > !inbox_cap then begin
        while !delivered_count > !inbox_cap do
          inbox_cap := !inbox_cap * 2
        done;
        rt_inbox_words := ba_create (!inbox_cap * words);
        rt_inbox_port := Array.make !inbox_cap (-1);
        rt.Fast_protocol.inbox_words <- !rt_inbox_words;
        rt.Fast_protocol.inbox_port <- !rt_inbox_port
      end;
      let acc = ref 0 in
      for j = 0 to !touched_len - 1 do
        let d = touched.(j) in
        ib_start.(d) <- !acc;
        ib_ptr.(d) <- !acc;
        acc := !acc + ib_count.(d)
      done;
      let iw = !rt_inbox_words and ip = !rt_inbox_port in
      let sw = !s_words in
      for k = 0 to s_count - 1 do
        let port = fport.(k) in
        if port >= 0 then begin
          let d = dst.(k) in
          let p = ib_ptr.(d) in
          ib_ptr.(d) <- p + 1;
          ip.(p) <- port;
          let b = p * words and sb = k * words in
          iw.{b} <- sw.(sb);
          if words > 1 then iw.{b + 1} <- sw.(sb + 1);
          if words > 2 then iw.{b + 2} <- sw.(sb + 2);
          add_pending d
        end
      done;
      (* 6. Early stop: network quiescent and every live node decided. *)
      in_flight := !total_sends > 0;
      if !total_sends = 0 && !live_undecided = 0 then finished := true;
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
      Engine.decisions = Array.init n (fun i -> P.decide t i);
      observations = Array.init n (fun i -> P.observe t i);
      faulty;
      crashed = Array.init n is_crashed;
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
