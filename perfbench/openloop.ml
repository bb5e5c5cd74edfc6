(* Open-loop request schedule and its latency accounting.

   Every request has a due time fixed before the run starts. Latency is
   measured from that due time, not from when the generator managed to
   send it, so a stall anywhere (generator, socket, server) counts
   against every request queued behind it. How late the generator
   itself sent each request is reported separately as lag. *)

type cls = Light | Heavy

let cls_name = function Light -> "light" | Heavy -> "heavy"

type outcome =
  | Pending
  | Done  (** Terminal [Result] that matched the in-process reference. *)
  | Failed of string  (** Anything else: shed, failed, rejected, wrong, lost. *)

type req = {
  cls : cls;
  index : int;  (** Position within its class; names the request. *)
  seed : int;
  due : float;  (** Generator clock, seconds. *)
  mutable sent : float;  (** [nan] until written to the socket. *)
  mutable accepted : float;  (** [nan] until its [Accepted] was read. *)
  mutable finished : float;  (** [nan] until its terminal reply was read. *)
  mutable outcome : outcome;
}

let make_req ~cls ~index ~seed ~due =
  { cls; index; seed; due; sent = Float.nan; accepted = Float.nan; finished = Float.nan;
    outcome = Pending }

(* One class at a fixed rate over [start, start + duration): request [i]
   is due at [start + offset + i / rate]. *)
let stream ~cls ~rate ~offset ~start ~duration ~seed_of =
  let count = int_of_float (Float.ceil ((duration -. offset) *. rate)) in
  List.init (max 0 count) (fun i ->
      make_req ~cls ~index:i ~seed:(seed_of cls i)
        ~due:(start +. offset +. (float_of_int i /. rate)))

(* Merge class streams into one array sorted by due time (stable, so
   equal due times keep class order). *)
let merge streams =
  let a = Array.of_list (List.concat streams) in
  Array.stable_sort (fun x y -> Float.compare x.due y.due) a;
  a

let latency_ms r = (r.finished -. r.due) *. 1000.
let lag_ms r = (r.sent -. r.due) *. 1000.
let accept_ms r = (r.accepted -. r.due) *. 1000.

type summary = {
  by_class : (cls * float list) list;  (** Latencies of requests judged correct. *)
  lags_ms : float list;  (** Every request that was sent. *)
  accepts_ms : float list;
}

(* Only [Done] requests have a latency sample: a failed one, or one still
   [Pending] when the run ended, misses every latency limit instead. *)
let summarize reqs =
  let reqs = Array.to_list reqs in
  let done_ = List.filter (fun r -> r.outcome = Done) reqs in
  let of_cls c = List.filter_map (fun r -> if r.cls = c then Some (latency_ms r) else None) done_ in
  {
    by_class = [ (Light, of_cls Light); (Heavy, of_cls Heavy) ];
    lags_ms = List.filter_map (fun r -> if Float.is_nan r.sent then None else Some (lag_ms r)) reqs;
    accepts_ms =
      List.filter_map (fun r -> if Float.is_nan r.accepted then None else Some (accept_ms r)) reqs;
  }
