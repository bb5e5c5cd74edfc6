(* Output checks. A run whose outputs are wrong counts its operations as
   failed, whatever its timings say. *)

(* The paper's measures for one trial, plus its verdict (the leader's
   index, or the agreed value). *)
type digest = {
  protocol : string;
  seed : int;
  verdict : string;
  msgs : int;
  bits : int;
  rounds : int;
}

let digest_to_string d =
  Printf.sprintf "%s seed=%d %s msgs=%d bits=%d rounds=%d" d.protocol d.seed d.verdict d.msgs
    d.bits d.rounds

(* The sweep's first trials at the default workload seed. A speed-up that
   changes the protocol's execution changes one of these. *)
let default_seed = 1

let pinned_sweep =
  [
    "ft-leader-election seed=4096 leader=52472 msgs=3943733 bits=328558060 rounds=299";
    "ft-agreement seed=4096 value=0 msgs=1131243 bits=5656215 rounds=576";
    "ft-leader-election seed=4097 leader=30904 msgs=6113113 bits=564326243 rounds=307";
    "ft-agreement seed=4097 value=0 msgs=1347116 bits=6735580 rounds=576";
  ]

(* [index] counts trials in run order. Only the default seed is pinned;
   at other seeds the property checks alone apply. *)
let check_pinned ~workload_seed ~index d =
  if workload_seed <> default_seed then Ok ()
  else
    match List.nth_opt pinned_sweep index with
    | None -> Ok ()
    | Some want ->
        let got = digest_to_string d in
        if got = want then Ok () else Error (Printf.sprintf "digest %S, pinned %S" got want)

(* What an in-process [Case.run] of the same instance produced. *)
type expected = { ok : bool; rounds : int; msgs : int; bits : int }

let check_reply ~expected (reply : Ftc_serve.Wire.reply) =
  match reply with
  | Ftc_serve.Wire.Result r ->
      if r.ok = expected.ok && r.rounds = expected.rounds && r.msgs = expected.msgs
         && r.bits = expected.bits
      then Ok ()
      else
        Error
          (Printf.sprintf
             "result ok=%b rounds=%d msgs=%d bits=%d, in-process ok=%b rounds=%d msgs=%d bits=%d"
             r.ok r.rounds r.msgs r.bits expected.ok expected.rounds expected.msgs expected.bits)
  | Ftc_serve.Wire.Failed f -> Error ("failed: " ^ f.class_ ^ " " ^ f.detail)
  | Ftc_serve.Wire.Shed _ -> Error "shed"
  | Ftc_serve.Wire.Rejected r -> Error ("rejected: " ^ r.reason)
  | _ -> Error "unexpected reply"
