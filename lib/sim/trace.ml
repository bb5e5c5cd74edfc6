type event =
  | Send of { round : int; src : int; dst : int; bits : int; delivered : bool }
  | Crash of { round : int; node : int }
  | Link_lost of { round : int; src : int; dst : int; bits : int }
  | Queue_dropped of { round : int; src : int; dst : int; bits : int }
  | Ecn_marked of { round : int; src : int; dst : int }
  | Unroutable of { round : int; node : int }

type t = { mutable rev_events : event list; mutable len : int }

let create () = { rev_events = []; len = 0 }

let add t e =
  t.rev_events <- e :: t.rev_events;
  t.len <- t.len + 1

let events t = List.rev t.rev_events

let fold f acc t = List.fold_left f acc t.rev_events

let length t = t.len

let pp_event ppf = function
  | Send { round; src; dst; bits; delivered } ->
      Format.fprintf ppf "r%d: %d -> %d (%d bits%s)" round src dst bits
        (if delivered then "" else ", lost")
  | Crash { round; node } -> Format.fprintf ppf "r%d: crash %d" round node
  | Link_lost { round; src; dst; bits } ->
      Format.fprintf ppf "r%d: %d -> %d (%d bits, link lost)" round src dst bits
  | Queue_dropped { round; src; dst; bits } ->
      Format.fprintf ppf "r%d: %d -> %d (%d bits, queue dropped)" round src dst bits
  | Ecn_marked { round; src; dst } ->
      Format.fprintf ppf "r%d: %d -> %d ecn-marked" round src dst
  | Unroutable { round; node } -> Format.fprintf ppf "r%d: %d fresh-port send unroutable" round node
