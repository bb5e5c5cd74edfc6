(* Benchmark-side tracing for the per-layer run: spans around each call
   into a layer's public functions, kept in memory and written out once
   at the end, plus the child-process result record every workload
   process prints. *)

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  name : string;
  start_ns : int64;
  dur_ns : int64;
}

let spans : span list ref = ref []
let next_id = ref 0

let record ~parent ~name ~start_ns ~dur_ns =
  let id = !next_id in
  incr next_id;
  spans := { id; parent; name; start_ns; dur_ns } :: !spans

(* Run [f] inside a span; [f] receives the span's id so children can name
   their parent. Returns [f]'s value and the span's duration in ns. *)
let span ?(parent = -1) name f =
  let id = !next_id in
  incr next_id;
  let t0 = now_ns () in
  let v = f id in
  let dur = Int64.sub (now_ns ()) t0 in
  spans := { id; parent; name; start_ns = t0; dur_ns = dur } :: !spans;
  (v, Int64.to_float dur)

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Ftc_journal.Json.to_string
           (Obj
              [
                ("id", Int s.id);
                ("parent", Int s.parent);
                ("name", String s.name);
                ("start_ns", String (Int64.to_string s.start_ns));
                ("dur_ns", String (Int64.to_string s.dur_ns));
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* What a workload process reports to the orchestrating process. *)
type result = {
  setup_s : float;
  attempted : int;
  failed : int;
  errors : string list;  (** The first few failure reasons, for stderr. *)
  metrics : (string * float) list;
  context : (string * float) list;  (** Recorded next to the run, never printed as a metric. *)
}

let result_to_json r =
  Ftc_journal.Json.Obj
    [
      ("setup_s", Float r.setup_s);
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("errors", List (List.map (fun e -> Ftc_journal.Json.String e) r.errors));
      ("metrics", Obj (List.map (fun (k, v) -> (k, Ftc_journal.Json.Float v)) r.metrics));
      ("context", Obj (List.map (fun (k, v) -> (k, Ftc_journal.Json.Float v)) r.context));
    ]

(* Failure bookkeeping shared by the workload processes. *)
type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let count t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error e ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if List.length t.errors < 5 then t.errors <- t.errors @ [ e ]

let finish ?(context = []) t ~setup_s metrics =
  { setup_s; attempted = t.attempted; failed = t.failed; errors = t.errors; metrics; context }
