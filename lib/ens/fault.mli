(** Deterministic fault injection for the notification service.

    Large-scale content-based networks treat broker, link, and
    subscriber failure as the common case; this module makes those
    failures reproducible. A {e plan} is a seeded source of fault
    decisions — "does this delivery attempt raise?", "does this link
    forward, drop, duplicate, or delay?", "does this broker pause?" —
    threaded through {!Broker} and {!Router} as an optional [?faults]
    argument. All randomness flows through {!Genas_prng.Prng}
    substreams split per fault category, so an identical seed and spec
    replay the identical failure trace, and enabling handler faults
    never perturbs the link decision stream (and vice versa).

    A plan records every fault it injects in a bounded trace; tests
    compare traces across runs to pin determinism. *)

exception Injected of string
(** Raised in place of the real handler when a plan injects a handler
    failure; also what supervised delivery reports as the error. *)

type crash_point =
  | Crash_before_fsync
      (** process dies while a journal record is in flight: a torn
          frame reaches the disk, the operation is lost *)
  | Crash_after_journal
      (** process dies after the record is durable but before the
          caller observes the acknowledgement *)
  | Crash_mid_snapshot
      (** process dies while writing the snapshot temp file; the
          previous snapshot and the journal stay intact *)

exception Crashed of crash_point
(** Raised at an injected crash point. Simulates process death: the
    broker that raised it must be abandoned and rebuilt with
    [Broker.recover]. *)

val crash_point_name : crash_point -> string

type spec = {
  handler_failure : (string * float) list;
      (** per-subscriber probability that one delivery {e attempt}
          raises (retries re-draw, so a flaky handler can succeed on a
          later attempt); subscribers not listed never fail *)
  link_drop : float;  (** probability an event forward is lost *)
  link_duplicate : float;  (** … delivered twice *)
  link_delay : float;
      (** … deferred until the undelayed propagation has finished *)
  broker_pause : float;
      (** probability a broker defers processing an arriving event
          (each arrival pauses at most once) *)
  crash_before_fsync : float;
      (** probability a journal append dies mid-write (torn record) *)
  crash_after_journal : float;
      (** probability the process dies right after a durable append *)
  crash_mid_snapshot : float;
      (** probability a snapshot write dies before the atomic rename *)
}

val none : spec
(** All probabilities zero: a plan that never injects anything. *)

type fault =
  | Handler_raise of { subscriber : string }
  | Link_drop of { src : int; dst : int }
  | Link_duplicate of { src : int; dst : int }
  | Link_delay of { src : int; dst : int }
  | Broker_pause of { node : int }
  | Crash of { point : crash_point; op : int }

type t

val plan : seed:int -> spec -> t
(** @raise Invalid_argument on probabilities outside [[0,1]] or when
    the three link probabilities sum above 1. *)

(** {1 Decision points} (consumed by Broker/Router; drawing only
    happens for categories with non-zero probability, so a plan with
    [none] injects nothing and consumes no randomness) *)

val handler_raises : t -> subscriber:string -> bool

val link_fate : t -> src:int -> dst:int -> [ `Forward | `Drop | `Duplicate | `Delay ]

val broker_pauses : t -> node:int -> bool

val journal_crash : t -> op:int -> crash_point option
(** Drawn by {!Journal.append} before each record, identified by the
    journal operation index. At most one crash ever fires per plan —
    the simulated process only dies once — and the two journal crash
    probabilities share a single draw ([crash_before_fsync] wins ties
    the way [link_fate] orders link faults). *)

val snapshot_crash : t -> op:int -> bool
(** Drawn by the snapshot writer; [true] means die mid-write (before
    the atomic rename). Also fires at most once per plan, sharing the
    crashed latch with {!journal_crash}. *)

val crashed : t -> bool
(** [true] once any crash point has fired. *)

(** {1 Inspection} *)

val injected : t -> int
(** Total faults injected so far. *)

val trace : t -> fault list
(** Injected faults, oldest first, bounded at 65536 entries (excess is
    not recorded; {!injected} still counts it). *)

val pp_fault : Format.formatter -> fault -> unit
