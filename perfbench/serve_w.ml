(* Workload [serve]: the service in its own process (workers = 2, bound
   256, flight ring off: the CLI defaults except the worker count), fed
   by a single-threaded open-loop generator in this process over two
   connections, one per request class:

   - light: ft-agreement n=16 alpha=0.5 random crashes, 200/s;
   - heavy: ft-leader-election n=48 alpha=0.5 random crashes, 4/s.

   Light requests are dominated by framing, wire codec, admission,
   dispatch and reply; heavy ones by the engine inside the service; light
   latency shows head-of-line blocking behind heavy instances. *)

open Perfbench
module Wire = Ftc_serve.Wire
module Frame = Ftc_serve.Frame
module Json = Ftc_journal.Json

let light_rate = 200.
let heavy_rate = 4.

let class_params = function
  | Openloop.Light -> ("ft-agreement", 16)
  | Openloop.Heavy -> ("ft-leader-election", 48)

let alpha = 0.5
let window = 16  (* Outstanding light requests in the closed-loop phase. *)

let req_seed ~seed cls i =
  ((seed land 0xFFF_FFFF) lsl 21) + (match cls with Openloop.Light -> 0 | Heavy -> 1 lsl 20) + i

let submit_of ~id (r : Openloop.req) =
  let protocol, n = class_params r.cls in
  Wire.Submit { id; protocol; n; alpha; seed = r.seed; adversary = "random"; timeout_ms = None }

(* --- The server process. --- *)

let server_main ~sock ~traced =
  let drain = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set drain true));
  let cfg =
    {
      (Ftc_serve.Server.default_config (Ftc_serve.Server.Unix_sock sock)) with
      Ftc_serve.Server.workers = 2;
      bound = 256;
      recorder =
        (if traced then Ftc_telemetry.Recorder.create () else Ftc_telemetry.Recorder.disabled);
    }
  in
  match Ftc_serve.Server.run ~drain cfg with
  | Error e ->
      prerr_endline ("perfbench server: " ^ e);
      exit 1
  | Ok s ->
      print_endline
        (Json.to_string
           (Obj
              [
                ("accepted", Int s.accepted);
                ("results", Int s.results);
                ("failed", Int s.failed);
                ("sheds", Int s.sheds);
                ("rejected", Int s.rejected);
                ("restarts", Int s.restarts);
                ("lost", Int s.lost);
                ("peak_open", Int s.peak_open);
                ("peak_rss_mb", Float (Host.self_peak_rss_mb ()));
              ]));
      exit (Ftc_serve.Server.exit_code s)

type server = { pid : int; out : Unix.file_descr; sock : string }

type conn = { fd : Unix.file_descr; dec : Frame.Decoder.t }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; dec = Frame.Decoder.create () }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let buf = Bytes.create 65536

(* Read what the socket has and hand every complete reply to [k]. *)
let drain_replies c k =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> failwith "server closed the connection"
  | len ->
      Frame.Decoder.feed c.dec buf 0 len;
      let rec next () =
        match Frame.Decoder.next c.dec with
        | Ok None -> ()
        | Ok (Some j) -> (
            match Wire.reply_of_json j with
            | Ok reply ->
                k reply;
                next ()
            | Error e -> failwith ("bad reply: " ^ e))
        | Error e -> failwith ("bad frame: " ^ e)
      in
      next ()

let kill_quietly server =
  (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] server.pid) with Unix.Unix_error _ -> ());
  if Sys.file_exists server.sock then Sys.remove server.sock

(* Start the server and wait until it answers Ping. Returns the start
   time with the server, so callers can time their set-up. *)
let start ~traced =
  let sock = Printf.sprintf "perfbench/out/serve-%d.sock" (Unix.getpid ()) in
  if Sys.file_exists sock then Sys.remove sock;
  let t0 = Host.now () in
  let out, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "server"; sock; (if traced then "1" else "0") |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let server = { pid; out; sock } in
  let rec wait tries =
    match if Sys.file_exists sock then connect sock else None with
    | Some c -> c
    | None ->
        if tries = 0 then failwith "server never bound";
        Unix.sleepf 0.002;
        wait (tries - 1)
  in
  match wait 5000 with
  | c ->
      Frame.write_fd c.fd (Wire.request_to_json Wire.Ping);
      let ponged = ref false in
      while not !ponged do
        drain_replies c (function Wire.Pong _ -> ponged := true | _ -> ())
      done;
      (server, c, t0)
  | exception e ->
      kill_quietly server;
      raise e

(* Drain the server and collect its summary line. *)
let stop server =
  Unix.kill server.pid Sys.sigterm;
  let ic = Unix.in_channel_of_descr server.out in
  let last = Proc.last_line ic in
  close_in ic;
  let _, status = Unix.waitpid [] server.pid in
  if Sys.file_exists server.sock then Sys.remove server.sock;
  match (status, Json.of_string last) with
  | Unix.WEXITED _, Ok j -> j
  | _ -> failwith ("server ended without a summary: " ^ last)

(* --- The generator. ---

   Not [Ftc_serve.Client]: it times each submit from when it was sent
   and keeps one class per run, while this generator times from the due
   time, mixes two classes, and keeps every raw sample. *)

type run = {
  mutable reqs : (string * Openloop.req) list;  (** Every request issued, newest first. *)
  replies : (string, Wire.reply) Hashtbl.t;  (** Terminal reply per request id. *)
}

(* Drive an open-loop schedule (sorted by due time) and, with
   [~closed:(until, mk)], a closed loop that keeps [window] light
   requests outstanding until [until], making the [i]th with [mk i now].
   Returns once every issued request is terminal or [deadline] passes.
   Request ids are [tag] + class initial + index; closed-loop ones start
   with 'c'. *)
let drive ~light ~heavy ~sched ?closed ~deadline ~tag run =
  let by_id = Hashtbl.create 4096 in
  let open_ = ref 0 and closed_open = ref 0 and closed_count = ref 0 in
  let send (r : Openloop.req) ~id =
    let c = match r.cls with Openloop.Light -> light | Heavy -> heavy in
    r.sent <- Host.now ();
    Frame.write_fd c.fd (Wire.request_to_json (submit_of ~id r));
    Hashtbl.replace by_id id r;
    run.reqs <- (id, r) :: run.reqs;
    incr open_
  in
  let on_reply reply =
    let now = Host.now () in
    match Wire.reply_id reply with
    | None -> ()
    | Some id -> (
        match Hashtbl.find_opt by_id id with
        | None -> ()
        | Some r -> (
            match reply with
            | Wire.Accepted _ -> r.accepted <- now
            | _ when Wire.is_terminal reply ->
                r.finished <- now;
                Hashtbl.replace run.replies id reply;
                Hashtbl.remove by_id id;
                decr open_;
                if String.length id > 0 && id.[0] = 'c' then decr closed_open
            | _ -> ()))
  in
  let next = ref 0 in
  let finished = ref false in
  while not !finished do
    let now = Host.now () in
    while !next < Array.length sched && sched.(!next).Openloop.due <= now do
      let r = sched.(!next) in
      send r ~id:(Printf.sprintf "%s%c%d" tag (Openloop.cls_name r.cls).[0] r.index);
      incr next
    done;
    let closed_active =
      match closed with
      | Some (until, mk) when now < until ->
          while !closed_open < window do
            let r = mk !closed_count now in
            send r ~id:(Printf.sprintf "c%s%d" tag !closed_count);
            incr closed_count;
            incr closed_open
          done;
          true
      | _ -> false
    in
    if (!next >= Array.length sched && (not closed_active) && !open_ = 0) || now > deadline then
      finished := true
    else begin
      let timeout =
        if !next < Array.length sched then Float.max 0. (Float.min 0.02 (sched.(!next).due -. now))
        else 0.02
      in
      match Unix.select [ light.fd; heavy.fd ] [] [] timeout with
      | ready, _, _ ->
          List.iter
            (fun fd -> drain_replies (if fd = light.fd then light else heavy) on_reply)
            ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done

(* In-process reference: the same instance through Case.run on this
   process's engine, exactly as the service builds it. Memoised per
   (class, seed); also returns the in-process wall time in ms. *)
let reference =
  let memo = Hashtbl.create 4096 in
  fun (r : Openloop.req) ->
    match Hashtbl.find_opt memo (r.cls, r.seed) with
    | Some v -> v
    | None ->
        let protocol, n = class_params r.cls in
        let entry = Option.get (Ftc_chaos.Catalog.find protocol) in
        let case =
          {
            Ftc_chaos.Case.protocol;
            n;
            alpha;
            seed = r.seed;
            inputs = Ftc_chaos.Catalog.gen_inputs entry ~n ~seed:r.seed;
            plan = [];
            adversary = Some "random";
            loss = Ftc_fault.Omission.No_loss;
            queue = None;
            transport = false;
          }
        in
        let t0 = Host.now () in
        let v =
          match Ftc_chaos.Case.run case with
          | Ok (res, findings) ->
              {
                Checks.ok = findings = [];
                rounds = res.rounds_used;
                msgs = res.metrics.msgs_sent;
                bits = res.metrics.bits_sent;
              }
          | Error e -> failwith ("reference Case.run: " ^ Ftc_chaos.Case.error_to_string e)
        in
        let v = (v, (Host.now () -. t0) *. 1000.) in
        Hashtbl.replace memo (r.cls, r.seed) v;
        v

(* Judge every request against its reference; unanswered ones fail. *)
let judge run tally =
  List.iter
    (fun (id, (r : Openloop.req)) ->
      let verdict =
        match Hashtbl.find_opt run.replies id with
        | None -> Error (id ^ ": no terminal reply")
        | Some reply ->
            Checks.check_reply ~expected:(fst (reference r)) reply
            |> Result.map_error (fun e -> id ^ ": " ^ e)
      in
      r.outcome <- (match verdict with Ok () -> Openloop.Done | Error e -> Openloop.Failed e);
      Layers.count tally verdict)
    (List.rev run.reqs)

(* NaN for an empty sample: every request of that kind failed, which the
   run already reports, and the metric cannot be printed. *)
let quantile xs q = if xs = [] then Float.nan else Stats.quantile xs q

let summary_int j k = Option.value (Proc.int_field j k) ~default:(-1)

(* Lost instances are failures the generator cannot see on its own. *)
let count_summary tally j =
  let lost = summary_int j "lost" in
  Layers.count tally (if lost = 0 then Ok () else Error (Printf.sprintf "server lost=%d" lost))

let schedule ~seed ~start ~duration =
  Openloop.merge
    [
      Openloop.stream ~cls:Light ~rate:light_rate ~offset:0. ~start ~duration
        ~seed_of:(req_seed ~seed);
      Openloop.stream ~cls:Heavy ~rate:heavy_rate ~offset:0.1 ~start ~duration
        ~seed_of:(req_seed ~seed);
    ]

let with_server ~traced f =
  let server, light, t0 = start ~traced in
  let heavy =
    match connect server.sock with Some c -> c | None -> failwith "second connection refused"
  in
  match f server light heavy t0 with
  | v ->
      Unix.close light.fd;
      Unix.close heavy.fd;
      (v, stop server)
  | exception e ->
      kill_quietly server;
      raise e

let of_cls c reqs =
  Array.of_list (List.filter (fun (r : Openloop.req) -> r.cls = c) (Array.to_list reqs))

let new_run () = { reqs = []; replies = Hashtbl.create 8192 }

(* A few instances of each class before timing starts. Their seeds are
   fixed, so set-up does the same work at every workload seed. *)
let warm_up ~light ~heavy run =
  let sched =
    Openloop.merge
      [
        Array.to_list (Array.init 8 (fun i ->
            Openloop.make_req ~cls:Light ~index:i ~seed:(req_seed ~seed:0 Light i) ~due:0.));
        [ Openloop.make_req ~cls:Heavy ~index:0 ~seed:(req_seed ~seed:0 Heavy 0) ~due:0. ];
      ]
  in
  drive ~light ~heavy ~sched ~deadline:(Host.now () +. 30.) ~tag:"w" run

(* Set-up: server process started, bound and answering Ping, and the
   warm-up instances answered. *)
let setup () =
  fst
    (with_server ~traced:false (fun _ light heavy t0 ->
         warm_up ~light ~heavy (new_run ());
         Host.now () -. t0))

let run ~seed ~seconds =
  let tally = Layers.tally () in
  let run_ = new_run () in
  let a_dur = 0.7 *. seconds and b_dur = 0.3 *. seconds in
  let ((setup_s, sched, closed_in_window), summary) =
    with_server ~traced:false (fun _ light heavy t0 ->
        warm_up ~light ~heavy run_;
        let setup_s = Host.now () -. t0 in
        let start = Host.now () +. 0.05 in
        let sched = schedule ~seed ~start ~duration:a_dur in
        drive ~light ~heavy ~sched ~deadline:(start +. a_dur +. 10.) ~tag:"a" run_;
        (* Closed-loop capacity: [window] light requests always
           outstanding, heavy still arriving at its fixed rate. Light
           seeds repeat phase A's, so references are computed once. *)
        let b_start = Host.now () in
        let b_end = b_start +. b_dur in
        let lights = of_cls Light sched in
        let mk i now =
          let seed = lights.(i mod Array.length lights).Openloop.seed in
          Openloop.make_req ~cls:Light ~index:i ~seed ~due:now
        in
        let heavy_b =
          Openloop.merge
            [ Openloop.stream ~cls:Heavy ~rate:heavy_rate ~offset:0.1 ~start:b_start ~duration:b_dur
                ~seed_of:(req_seed ~seed) ]
        in
        drive ~light ~heavy ~sched:heavy_b ~closed:(b_end, mk) ~deadline:(b_end +. 10.) ~tag:"b"
          run_;
        let in_window =
          List.length
            (List.filter
               (fun (id, (r : Openloop.req)) -> id.[0] = 'c' && r.finished <= b_end)
               run_.reqs)
        in
        (setup_s, sched, float_of_int in_window /. b_dur))
  in
  count_summary tally summary;
  judge run_ tally;
  let s = Openloop.summarize sched in
  let lat = List.assoc Openloop.Light s.by_class in
  let tail_level, tail = if lat = [] then (1.0, Float.nan) else Stats.tail lat in
  Layers.finish tally ~setup_s
    ~context:
      [
        ("light_tail_level", tail_level);
        ("light_tail_ms", tail);
        ("heavy_p50_ms", quantile (List.assoc Openloop.Heavy s.by_class) 0.5);
        ("gen_lag_ms_p99", quantile s.lags_ms 0.99);
        ("accept_ms_p99", quantile s.accepts_ms 0.99);
      ]
      [
        ("work_per_s", closed_in_window);
        ("latency_p50_ms", quantile lat 0.5);
        ("peak_rss_mb", Option.value (Proc.float_field summary "peak_rss_mb") ~default:Float.nan);
      ]

(* --- Per-layer run. --- *)

(* Everything due at once: [burst_light] light and [burst_heavy] heavy
   instances, under the admission bound, reusing phase-A seeds. *)
let burst_light = 200
let burst_heavy = 4

let burst ~seed ~light ~heavy ~tag run =
  let start = Host.now () in
  let sched =
    Openloop.merge
      [
        List.init burst_light (fun i ->
            Openloop.make_req ~cls:Light ~index:i ~seed:(req_seed ~seed Light i) ~due:start);
        List.init burst_heavy (fun i ->
            Openloop.make_req ~cls:Heavy ~index:i ~seed:(req_seed ~seed Heavy i) ~due:start);
      ]
  in
  drive ~light ~heavy ~sched ~deadline:(start +. 60.) ~tag run;
  let last = Array.fold_left (fun acc (r : Openloop.req) -> Float.max acc r.finished) start sched in
  (sched, (last -. start) *. 1000.)

(* Three bursts back to back; the median wall time in ms. *)
let bursts ~seed ~light ~heavy ~tag run =
  let walls =
    List.init 3 (fun i ->
        fst
          (Layers.span ("serve burst " ^ tag) (fun _ ->
               burst ~seed ~light ~heavy ~tag:(Printf.sprintf "%s%d" tag i) run)))
  in
  (fst (List.hd walls), Stats.median (List.map snd walls))

(* Mean microseconds per call of [f] over [reps] calls. *)
let micro name reps f =
  let (), ns =
    Layers.span name (fun _ ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  ns /. 1e3 /. float_of_int reps

let layers ~seed =
  let tally = Layers.tally () in
  let traced_run = new_run () and untraced_run = new_run () in
  let duration = 8.0 in
  let (setup_s, sched, traced_burst_ms), summary =
    with_server ~traced:true (fun _ light heavy t0 ->
        warm_up ~light ~heavy traced_run;
        let setup_s = Host.now () -. t0 in
        let start = Host.now () +. 0.05 in
        let sched = schedule ~seed ~start ~duration in
        ignore
          (Layers.span "serve open-loop" (fun _ ->
               drive ~light ~heavy ~sched ~deadline:(start +. duration +. 10.) ~tag:"a"
                 traced_run));
        let _, ms = bursts ~seed ~light ~heavy ~tag:"t" traced_run in
        (setup_s, sched, ms))
  in
  count_summary tally summary;
  let (burst_untraced, untraced_burst_ms), untraced_summary =
    with_server ~traced:false (fun _ light heavy _ ->
        warm_up ~light ~heavy untraced_run;
        bursts ~seed ~light ~heavy ~tag:"u" untraced_run)
  in
  count_summary tally untraced_summary;
  judge traced_run tally;
  judge untraced_run tally;
  let inproc_ms =
    Array.fold_left (fun acc r -> acc +. snd (reference r)) 0. burst_untraced
  in
  let s = Openloop.summarize sched in
  let lat_of c = List.assoc c s.by_class in
  let overhead c =
    Array.to_list sched
    |> List.filter_map (fun (r : Openloop.req) ->
           if r.cls = c && r.outcome = Openloop.Done then
             Some (Openloop.latency_ms r -. snd (reference r))
           else None)
  in
  (* The codec layers on this workload's real frames. *)
  let sub_req =
    submit_of ~id:"al0"
      (Openloop.make_req ~cls:Light ~index:0 ~seed:(req_seed ~seed Light 0) ~due:0.)
  in
  let res_rep =
    match Hashtbl.find_opt traced_run.replies "al0" with
    | Some r -> r
    | None -> failwith "light request al0 was not answered"
  in
  let sub = Wire.request_to_json sub_req and res = Wire.reply_to_json res_rep in
  let frames = [| Frame.encode sub; Frame.encode res |] in
  let reps = 20_000 in
  let encode_us =
    micro "Frame.encode" reps (fun () -> (Frame.encode sub, Frame.encode res)) /. 2.
  in
  let decode_us =
    micro "Frame.Decoder" reps (fun () ->
        let d = Frame.Decoder.create () in
        Array.iter (Frame.Decoder.feed_string d) frames;
        (Frame.Decoder.next d, Frame.Decoder.next d))
    /. 2.
  in
  let wire_us =
    micro "Wire codec" reps (fun () ->
        ( Wire.request_of_json (Wire.request_to_json sub_req),
          Wire.reply_of_json (Wire.reply_to_json res_rep) ))
    /. 2.
  in
  let q = Ftc_serve.Admission.create ~bound:256 ~workers:2 () in
  let admission_us =
    micro "Admission cycle" reps (fun () ->
        ignore (Ftc_serve.Admission.admit q ());
        ignore (Ftc_serve.Admission.take q);
        Ftc_serve.Admission.complete q ~service_ms:0.3)
  in
  let sf k = float_of_int (summary_int summary k) in
  Layers.finish tally ~setup_s
      [
        ("serve.light_p50_ms", quantile (lat_of Light) 0.5);
        ("serve.light_p99_ms", quantile (lat_of Light) 0.99);
        ("serve.heavy_p50_ms", quantile (lat_of Heavy) 0.5);
        ("serve.heavy_p90_ms", quantile (lat_of Heavy) 0.9);
        ("serve.accept_ms_p50", quantile s.accepts_ms 0.5);
        ("serve.accept_ms_p99", quantile s.accepts_ms 0.99);
        ("serve.overhead_ms_p50.light", quantile (overhead Light) 0.5);
        ("serve.overhead_ms_p50.heavy", quantile (overhead Heavy) 0.5);
        ("serve.overhead_x", untraced_burst_ms /. inproc_ms);
        ("serve.frame_encode_us", encode_us);
        ("serve.frame_decode_us", decode_us);
        ("serve.wire_codec_us", wire_us);
        ("serve.admission_us", admission_us);
        ("serve.sheds", sf "sheds");
        ("serve.peak_open", sf "peak_open");
        ("serve.restarts", sf "restarts");
        ("serve.lost", sf "lost");
        ("serve.gen_lag_ms_p99", quantile s.lags_ms 0.99);
        ( "trace.overhead_pct.serve",
          (traced_burst_ms -. untraced_burst_ms) /. untraced_burst_ms *. 100. );
      ]
