(** Execution traces, for the lower-bound analyses.

    The lower-bound proofs of the paper (Theorems 4.2 and 5.2) reason about
    the *communication graph* of an execution — who sent to whom, and the
    "influence clouds" reachable from initiator nodes. Recording a trace
    lets [Ftc_analysis.Influence] compute those objects from real runs.

    A message lost on a live link produces two events: a [Send] with
    [delivered = false] (it was sent and counts in the paper's message
    complexity) and a [Link_lost] marker attributing the loss to the
    {!Link} model rather than a crash — so send/drop counts from the trace
    still reconcile exactly with {!Metrics}. A message dropped by a
    bounded ingress queue ({!Queue_model}) is recorded the same way, with
    a [Queue_dropped] marker in place of [Link_lost]. *)

type event =
  | Send of { round : int; src : int; dst : int; bits : int; delivered : bool }
  | Crash of { round : int; node : int }
  | Link_lost of { round : int; src : int; dst : int; bits : int }
      (** Emitted alongside the undelivered [Send] it explains. *)
  | Queue_dropped of { round : int; src : int; dst : int; bits : int }
      (** Dropped by the destination's bounded ingress queue
          ({!Queue_model}); emitted alongside the undelivered [Send] it
          explains, like [Link_lost]. *)
  | Ecn_marked of { round : int; src : int; dst : int }
      (** The message was delivered carrying the ECN congestion bit;
          emitted alongside its delivered [Send]. *)
  | Unroutable of { round : int; node : int }
      (** A [Fresh_port] send with no unknown peer left; never sent. *)

type t
(** An append-only event log. *)

val create : unit -> t
val add : t -> event -> unit
val events : t -> event list
(** Events in chronological order. *)

val fold : ('a -> event -> 'a) -> 'a -> t -> 'a
(** [fold f acc t] folds [f] over the events {e newest first}, without
    copying the log (unlike {!events}, which reverses it). For
    order-insensitive passes such as counting. *)

val length : t -> int
val pp_event : Format.formatter -> event -> unit
