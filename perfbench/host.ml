(* Host context recorded next to every run. None of it scales a metric:
   it is there so a reader can tell a slow host from a slow program. *)

let now () = Unix.gettimeofday ()

(* Peak resident set (VmHWM) of this process, in MB. *)
let self_peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* A fixed integer loop the compiler cannot drop; its wall time tracks
   how much of a core this process is getting right now. *)
let spin_iters = 100_000_000

let spin () =
  let acc = ref 0 in
  for i = 1 to spin_iters do
    acc := (!acc * 31) + i
  done;
  Sys.opaque_identity !acc |> ignore

let time f =
  let t0 = now () in
  f ();
  now () -. t0

(* Effective cores: one spin alone, then two at once on two domains.
   On a host that delivers k cores to two runnable domains, the pair
   takes 2/k times as long as the single spin. *)
let effective_cores () =
  let one = time spin in
  let two =
    time (fun () ->
        let d = Domain.spawn spin in
        spin ();
        Domain.join d)
  in
  (one, two, 2. *. one /. two)

let gc_json () =
  let g = Gc.get () in
  Ftc_journal.Json.Obj
    [
      ("minor_heap_words", Int g.Gc.minor_heap_size);
      ("space_overhead", Int g.Gc.space_overhead);
      ("major_heap_increment", Int g.Gc.major_heap_increment);
    ]
