module Rng = Ftc_rng.Rng

(* Lazy port wiring, shared by the closure engine and the
   struct-of-arrays fast engine so both resolve destinations through
   literally the same code (and thus the same wiring-rng stream). Ports
   are dense small integers; the peer behind each used port is recorded
   both ways so that the same peer is always seen behind the same local
   port, as a fixed hidden permutation would guarantee.

   Two tiers. The network table {!Net} keeps every node's first seven
   ports inline in one flat int array, eight words per node: word 0 is
   the port count, words 1-7 the peers behind ports 0-6. The sublinear
   protocols leave almost every node with a handful of ports (94-98% of
   nodes end an n = 131072 election or agreement trial with at most 7,
   and only the 119-156 candidates pass 64), so a delivery usually
   resolves its port in one or two cache lines. A node that opens an 8th port, or that asks
   for a fresh peer once half the network is behind its ports, spills
   to a per-node table [t]: an open-addressing peer -> port map with
   linear probing plus a dense port -> peer array, allocated on first
   use. A spilled node's word 0 is negative and indexes the small,
   growable array of spill tables.

   Stream identity. A spill replays the inline peers into the fresh
   table in port order, so every port keeps its number. Rejection
   sampling asks the same membership question of either tier (a linear
   scan inline, a probe after the spill) and so consumes exactly the
   same [Rng.int] draws; the complement switch only ever happens in a
   spill table, which at that point holds exactly what a per-node table
   would. Port numbers and [wiring_rng] draws are therefore those of a
   network of per-node tables. *)

type t = {
  mutable by_port : int array;  (* port -> peer over [0 .. next_port) *)
  mutable next_port : int;
  mutable keys : int array;  (* open addressing: peers, -1 = empty *)
  mutable vals : int array;  (* port behind keys.(slot) *)
  mutable mask : int;  (* capacity - 1; -1 = not yet allocated *)
  mutable complement : int array;
      (** Once most peers are known, the unknown ones in a pre-shuffled
          order, consumed by [fresh_peer] from [cursor] on. Consumed to
          the end (or never built) = [cursor = Array.length complement]. *)
  mutable cursor : int;
}

let create () =
  {
    by_port = [||];
    next_port = 0;
    keys = [||];
    vals = [||];
    mask = -1;
    complement = [||];
    cursor = 0;
  }

(* Fibonacci multiplier; peers are arbitrary ints, slots their top bits. *)
let slot_of peer mask = ((peer * 0x2545F4914F6CDD1D) lsr 16) land mask

let rehash t cap' =
  let keys' = Array.make cap' (-1) and vals' = Array.make cap' 0 in
  let mask' = cap' - 1 in
  let old = t.keys in
  for s = 0 to Array.length old - 1 do
    let k = Array.unsafe_get old s in
    if k >= 0 then begin
      let i = ref (slot_of k mask') in
      while Array.unsafe_get keys' !i >= 0 do
        i := (!i + 1) land mask'
      done;
      Array.unsafe_set keys' !i k;
      Array.unsafe_set vals' !i (Array.unsafe_get t.vals s)
    end
  done;
  t.keys <- keys';
  t.vals <- vals';
  t.mask <- mask'

(* Keep load under 1/2; grow the dense array alongside. *)
let ensure_room t =
  if t.mask < 0 then begin
    t.keys <- Array.make 8 (-1);
    t.vals <- Array.make 8 0;
    t.mask <- 7;
    t.by_port <- Array.make 8 (-1)
  end
  else begin
    if 2 * (t.next_port + 1) > t.mask + 1 then rehash t (2 * (t.mask + 1));
    if t.next_port >= Array.length t.by_port then begin
      let a = Array.make (2 * Array.length t.by_port) (-1) in
      Array.blit t.by_port 0 a 0 t.next_port;
      t.by_port <- a
    end
  end

(* Slot where [peer] lives, or the insertion slot (key -1) otherwise. *)
let probe t peer =
  let mask = t.mask and keys = t.keys in
  let i = ref (slot_of peer mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k >= 0 && !k <> peer do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  !i

let mem t peer = t.mask >= 0 && t.keys.(probe t peer) = peer

(* The port leading from this node to [peer], opening it if needed. *)
let port_to t peer =
  ensure_room t;
  let s = probe t peer in
  if t.keys.(s) = peer then t.vals.(s)
  else begin
    let p = t.next_port in
    t.next_port <- p + 1;
    t.keys.(s) <- peer;
    t.vals.(s) <- p;
    t.by_port.(p) <- peer;
    p
  end

(* Allocation-free lookup for the engines' hot paths: -1 = unknown. *)
let peer_of_port_int t p = if p >= 0 && p < t.next_port then t.by_port.(p) else -1

(* Ports are numbered consecutively from 0, so the table's domain is
   exactly [0 .. count - 1]. *)
let count t = t.next_port

(* Opening a fresh port reveals a uniform node among those not already
   behind a used port (and not self). Rejection sampling is O(1) expected
   while used ports are a minority; past n/2 we build the complement once,
   shuffled, and consume it — a uniformly shuffled complement yields
   exactly uniform sampling without replacement, and keeps broadcast-to-
   all linear instead of quadratic. Entries that became known through a
   received message meanwhile are skipped on pop; a complement consumed
   to the end is rebuilt from the peers still unknown. *)
let fresh_peer wiring_rng t ~n ~self =
  let used = t.next_port in
  let built = t.cursor < Array.length t.complement in
  if used >= n - 1 then None
  else if used < n / 2 && not built then begin
    let rec draw () =
      let peer = Rng.int wiring_rng n in
      if peer = self || mem t peer then draw () else peer
    in
    Some (draw ())
  end
  else begin
    if not built then begin
      let buf = Array.make n 0 in
      let len = ref 0 in
      for peer = 0 to n - 1 do
        if peer <> self && not (mem t peer) then begin
          buf.(!len) <- peer;
          incr len
        end
      done;
      let arr = Array.sub buf 0 !len in
      Ftc_rng.Dist.shuffle wiring_rng arr;
      t.complement <- arr;
      t.cursor <- 0
    end;
    let arr = t.complement in
    let rec pop i =
      if i >= Array.length arr then begin
        t.cursor <- i;
        None
      end
      else if mem t arr.(i) then pop (i + 1)
      else begin
        t.cursor <- i + 1;
        Some arr.(i)
      end
    in
    pop t.cursor
  end

(* The network table: both engines resolve every port through one of
   these. Node [i]'s words are [slots.(8i) .. slots.(8i + 7)]. The
   functions below shadow the per-node ones by name; where a body calls
   [port_to] or [fresh_peer] on a spill table it means the per-node
   function above (the definitions are not recursive). *)
module Net = struct
  type table = t

  type t = {
    n : int;
    slots : int array;
    mutable spill : table array;  (* [0 .. spill_len) in use *)
    mutable spill_len : int;
  }

  let stride = 8
  let inline_ports = stride - 1

  (* Tables are only allocated for nodes that spill, so set-up is one
     flat array whatever n is. *)
  let make n = { n; slots = Array.make (stride * n) 0; spill = [||]; spill_len = 0 }

  let spilled net w = net.spill.(-w - 1)

  (* Move node [i]'s inline ports into a fresh spill table, in port
     order so each keeps its number. *)
  let spill net i =
    let b = i * stride in
    let c = net.slots.(b) in
    let t = create () in
    for p = 0 to c - 1 do
      ignore (port_to t net.slots.(b + 1 + p))
    done;
    if net.spill_len = Array.length net.spill then begin
      let a = Array.make (max 8 (2 * net.spill_len)) t in
      Array.blit net.spill 0 a 0 net.spill_len;
      net.spill <- a
    end;
    net.spill.(net.spill_len) <- t;
    net.spill_len <- net.spill_len + 1;
    net.slots.(b) <- -net.spill_len;
    t

  let count net i =
    let c = net.slots.(i * stride) in
    if c >= 0 then c else (spilled net c).next_port

  (* The peer behind node [i]'s port [p]; -1 = unknown port. *)
  let peer_of_port net i p =
    let b = i * stride in
    let c = net.slots.(b) in
    if c >= 0 then if p >= 0 && p < c then net.slots.(b + 1 + p) else -1
    else peer_of_port_int (spilled net c) p

  (* Inline port of [peer] among node base [b]'s first [c] ports, or -1.
     Loops, not local recursive functions: this runs on every delivery,
     and a closure over [slots]/[b]/[c]/[peer] would allocate per call. *)
  let inline_find slots b c peer =
    let p = ref 0 in
    while !p < c && Array.unsafe_get slots (b + 1 + !p) <> peer do
      incr p
    done;
    if !p < c then !p else -1

  let port_to net i peer =
    let slots = net.slots and b = i * stride in
    let c = slots.(b) in
    if c < 0 then port_to (spilled net c) peer
    else
      let p = inline_find slots b c peer in
      if p >= 0 then p
      else if c < inline_ports then begin
        Array.unsafe_set slots (b + 1 + c) peer;
        Array.unsafe_set slots b (c + 1);
        c
      end
      else port_to (spill net i) peer

  (* Same branches as the per-node [fresh_peer]: an inline node has never
     built a complement, so below n/2 it rejection-samples with the same
     membership answers, and at n/2 it spills and lets its table build
     one. *)
  let fresh_peer wiring_rng net ~self =
    let n = net.n and slots = net.slots and b = self * stride in
    let c = slots.(b) in
    if c < 0 then fresh_peer wiring_rng (spilled net c) ~n ~self
    else if c >= n - 1 then None
    else if c < n / 2 then begin
      let peer = ref (Rng.int wiring_rng n) in
      while !peer = self || inline_find slots b c !peer >= 0 do
        peer := Rng.int wiring_rng n
      done;
      Some !peer
    end
    else fresh_peer wiring_rng (spill net self) ~n ~self
end
