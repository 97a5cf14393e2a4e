(** Bounded dead-letter queue.

    Notifications whose delivery failed terminally — the handler raised
    (or a fault plan made it raise) on every attempt the retry policy
    allowed, or the subscriber's circuit breaker was open — land here
    instead of disappearing. The queue is bounded: at capacity the
    oldest entry is evicted (and counted in {!dropped}), so a
    permanently broken subscriber can never leak unbounded memory.

    Every {!Broker} and {!Router} owns one (see [deadletter] there);
    operators inspect or drain it to decide whether to replay, alert,
    or discard. *)

type entry = {
  notification : Notification.t;  (** the undeliverable notification *)
  attempts : int;
      (** delivery attempts made (0 when short-circuited by an open
          circuit breaker) *)
  error : string;  (** printed form of the last exception *)
  seq : int;  (** supervisor delivery sequence number, for ordering *)
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 1024. [0] keeps nothing (every push is
    dropped but still counted).

    @raise Invalid_argument on a negative capacity. *)

val capacity : t -> int

val length : t -> int
(** Entries currently held. *)

val total : t -> int
(** Entries ever pushed, including dropped ones. *)

val dropped : t -> int
(** Entries evicted (or rejected at capacity 0). *)

val push : t -> entry -> unit

val entries : t -> entry list
(** Oldest first; the queue is left untouched. *)

val iter : t -> (entry -> unit) -> unit

val replay : t -> deliver:(entry -> bool) -> int * int
(** [replay t ~deliver] drains the queue and feeds every held entry to
    [deliver], oldest first; returns [(redelivered, failed)] counts of
    [true]/[false] results. The queue is emptied {e before} the first
    call, so a [deliver] that routes back through supervised delivery
    may dead-letter the entry again without this pass picking it up a
    second time. See {!Broker.replay_deadletters} for the wired-up
    form. *)

(** {1 Recovery} *)

val restore : t -> entry list -> total:int -> dropped:int -> unit
(** Replace the queue's contents and lifetime counters with journaled
    state (entries oldest first; trimmed to capacity from the front).

    @raise Invalid_argument on negative counters. *)

val force_counters : t -> total:int -> dropped:int -> unit
(** Overwrite just the lifetime counters — used when replay has re-pushed
    journaled entries and the absolute counters must win over the
    replayed increments.

    @raise Invalid_argument on negative counters. *)
