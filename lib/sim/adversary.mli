(** The crash adversary, as specified in Section II of the paper.

    The adversary is *static* in selection: before the execution it picks
    the faulty set (at most [(1 - alpha) n] nodes). It is *adaptive in
    timing*: during the run it "can adaptively choose when and how a node
    crashes" — in the crash round, "an arbitrary subset (possibly all) of
    its messages for that round may be lost (as determined by an
    adversary)". A crashed node halts and never acts again.

    An [Adversary.t] value holds closures and may carry hidden per-run
    state (e.g. "one crash per iteration" pacing), so construct a fresh
    value for every run; the strategy constructors in [Ftc_fault] do that.

    The adversary sees everything: the protocol-published observation of
    every node plus the outgoing traffic of its own faulty nodes. This is
    the standard omniscient worst-case adversary; benign strategies simply
    ignore the view. *)

type drop_rule =
  | Drop_all  (** Lose every message of the crash round. *)
  | Drop_none  (** Crash after a fully successful send. *)
  | Drop_random of float  (** Lose each message independently with this prob. *)
  | Keep_prefix of int  (** Deliver only the first [k] messages. *)

type outgoing = { dst : int; bits : int }
(** Summary of one pending message of a faulty node. *)

type round_view = {
  round : int;
  n : int;
  alive : int array;
      (** Ascending ids of the faulty nodes not crashed yet, in
          [alive.(0 .. alive_count - 1)]. The engine reuses this buffer
          across rounds: it is valid only during [decide_crashes]. *)
  alive_count : int;
  pending_of : int -> outgoing list;
      (** This round's sends of an id in [alive], built on demand. *)
  all_observations : Observation.t array;  (** Indexed by node. *)
}

type t = {
  name : string;
  pick_faulty : Ftc_rng.Rng.t -> n:int -> f:int -> int list;
      (** Choose the faulty set before the run; must return at most [f]
          distinct node indices. *)
  decide_crashes : Ftc_rng.Rng.t -> round_view -> (int * drop_rule) list;
      (** Called every round; each returned [(node, rule)] crashes that
          (alive, faulty) node this round under the given message-loss
          rule. Returning a node not alive-and-faulty is an error the
          engine reports. *)
}

val filter_alive : round_view -> (int -> drop_rule option) -> (int * drop_rule) list
(** [filter_alive view f] applies [f] to every alive faulty id in
    ascending order and returns the [(id, rule)] pairs where it answered
    [Some rule], in that order. [f] may draw from an rng: the draws happen
    in id order. Allocates only for the returned crashes. *)

val none : t
(** The empty adversary: no faults at all (the fault-free setting of
    Kutten et al. / Augustine et al., used for the alpha = 1 baselines). *)
