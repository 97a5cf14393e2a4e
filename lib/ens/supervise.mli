(** Supervised notification delivery: retry, backoff, circuit breaking,
    dead-lettering.

    Both the single-node {!Broker} and the routed {!Router} hand every
    handler invocation to a supervisor. An attempt that raises (for
    real, or because a {!Fault} plan injected a failure) is caught at
    the delivery boundary — one bad subscriber can never starve the
    others or corrupt the broker's counters — and retried under the
    supervisor's {!policy}: up to [max_attempts] attempts with
    exponential backoff and seeded jitter drawn from
    {!Genas_prng.Prng}, so the retry schedule is reproducible from
    [jitter_seed]. Backoffs are computed and recorded (metrics,
    {!trace}) rather than slept — the library is synchronous and
    deterministic; an embedding that schedules real redelivery can read
    the delay from the trace.

    Terminal failures land in a bounded {!Deadletter} queue. A
    per-subscriber circuit breaker (enabled when [trip_after > 0])
    opens after [trip_after] consecutive terminal failures; while open,
    deliveries to that subscriber are short-circuited straight to the
    dead-letter queue, and after [cooldown] short-circuits the next
    delivery runs as a single half-open probe — success closes the
    circuit, failure reopens it. *)

type policy = {
  max_attempts : int;  (** total attempts per delivery, including the first *)
  backoff_ns : float;  (** backoff before the second attempt, ns *)
  multiplier : float;  (** exponential backoff factor *)
  jitter : float;
      (** in [[0,1]]: each backoff is scaled by [1 - jitter * u] with
          [u] uniform on [[0,1)] *)
  jitter_seed : int;  (** seed of the jitter stream *)
  trip_after : int;
      (** consecutive terminal failures that open a subscriber's
          circuit; [0] disables the breaker *)
  cooldown : int;
      (** short-circuited deliveries before a half-open probe *)
}

val default_policy : policy
(** One attempt, no breaker: supervision only (exceptions are caught
    and dead-lettered, never retried). *)

val retry_policy :
  ?max_attempts:int ->
  ?backoff_ns:float ->
  ?multiplier:float ->
  ?jitter:float ->
  ?jitter_seed:int ->
  ?trip_after:int ->
  ?cooldown:int ->
  unit ->
  policy
(** {!default_policy} field-by-field, except [max_attempts] defaults
    to 3. *)

type circuit_state = Closed | Open | Half_open

type outcome = Delivered | Failed | Short_circuited

type record = {
  seq : int;  (** delivery sequence number (every delivery counts) *)
  subscriber : string;
  attempts : int;
  backoffs_ns : float list;  (** one scheduled backoff per retry *)
  outcome : outcome;
  error : string option;  (** last error for [Failed]/[Short_circuited] *)
}

type t

val create :
  ?policy:policy ->
  ?deadletter_capacity:int ->
  ?metrics:Genas_obs.Metrics.t ->
  ?tracer:Genas_obs.Trace.t ->
  prefix:string ->
  unit ->
  t
(** [prefix] names the metric family (["genas_broker"] for a broker);
    see docs/OBSERVABILITY.md for the suffixes.

    [tracer] records one ["deliver"] span (with a [subscriber]
    attribute) per supervised delivery and one ["deliver.attempt"]
    span per attempt; a terminal failure closes both with an error
    status and dumps the flight recorder
    ({!Genas_obs.Trace.record_crash}).

    @raise Invalid_argument on an invalid policy. *)

val policy : t -> policy

val deliver :
  t ->
  ?faults:Fault.t ->
  subscriber:string ->
  handler:Notification.handler ->
  Notification.t ->
  bool
(** Deliver one notification under supervision; [true] iff the handler
    accepted it on some attempt. Never raises on handler failure. *)

val deadletter : t -> Deadletter.t

val circuit : t -> string -> circuit_state
(** A subscriber's circuit ([Closed] when never seen). *)

(** {1 Counters} (plain integers, maintained with or without a metrics
    registry) *)

val delivered : t -> int

val failures : t -> int
(** Failed attempts (a 3-attempt terminal failure counts 3). *)

val retries : t -> int

val deadlettered : t -> int

val short_circuited : t -> int

val trips : t -> int

(** {1 Trace} *)

val trace : t -> record list
(** Eventful deliveries — a retry, a failure, or a short-circuit;
    clean first-attempt deliveries are not traced — oldest first,
    bounded at 4096 entries. Identical seeds and workloads produce
    bit-identical traces. *)

val pp_record : Format.formatter -> record -> unit

(** {1 Serialization}

    The supervisor's durable state: lifetime counters, every
    subscriber's circuit, and the position of the jitter stream (as a
    draw count — recovery replays the seed and discards that many
    draws, so post-recovery backoff schedules continue the original
    sequence exactly). The diagnostic trace is not persisted. *)

module Export : sig
  type t = {
    deliveries : int;
    delivered : int;
    failures : int;
    retries : int;
    deadlettered : int;
    short_circuited : int;
    trips : int;
    jitter_draws : int;
    circuits : (string * circuit_state * int) list;
        (** every circuit ever touched, sorted by subscriber, with its
            state and count (consecutive terminal failures when
            [Closed], short-circuits since the trip when [Open]) *)
  }
end

val export : t -> Export.t

val import : t -> Export.t -> (unit, string) result
(** Restore exported state into a supervisor created with the same
    policy. Counters are overwritten (the metrics counters read
    them), circuits replaced, and the jitter stream
    fast-forwarded. Fails if the target's jitter stream is already past
    the exported position. Importing repeatedly with non-decreasing
    exports (journal replay) is safe. *)
