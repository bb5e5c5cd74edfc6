(* xoshiro256++, with the four 64-bit state words s0..s3 in a 32-byte
   [Bytes.t] at offsets 0, 8, 16, 24. The [%caml_bytes_get64u] /
   [%caml_bytes_set64u] primitives read and write raw int64s, and since
   [step] is inlined into each projection below, ocamlopt keeps every
   intermediate unboxed: drawing allocates nothing. (An [int64] record
   boxes on every field write.) test_rng pins the output stream against
   a direct Int64 transcription of the reference algorithm. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_seed seed =
  let sm = Splitmix.create seed in
  let s0 = Splitmix.next sm in
  let s1 = Splitmix.next sm in
  let s2 = Splitmix.next sm in
  let s3 = Splitmix.next sm in
  (* An all-zero state is a fixed point of the transition function; the
     probability of drawing it from SplitMix64 is negligible but we guard
     anyway so that [next] is total for every seed. *)
  let s0 = if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then 1L else s0 in
  let t = Bytes.create 32 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Advance the state one draw and return the 64-bit output. Reference
   transition:
     result = rotl(s0 + s3, 23) + s0
     tmp = s1 << 17
     s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= tmp
     s3 = rotl(s3, 45) *)
let[@inline] step t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let next t = step t

(* Allocation-free projections of one draw, for {!Rng}'s hot paths.
   Each advances the state exactly once, like [next]. *)

let next_low62 t = Int64.to_int (step t) land ((1 lsl 62) - 1)

let next_hi53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

let next_bit t = Int64.to_int (step t) land 1

let copy = Bytes.copy
