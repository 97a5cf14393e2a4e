(** Siena-like routed notification network (§2: "In Siena, the concept
    of early rejection on event-level is used for a distributed
    service. The service implements profile and event propagation
    within a network.").

    Brokers form a tree topology. Subscriptions propagate away from
    their subscriber through every broker, but a broker forwards a
    subscription over a link only when no previously forwarded
    subscription *covers* it (attribute-wise denotation containment);
    events flow hop-by-hop, filtered at every broker by its own
    distribution-based engine, and are forwarded only over links whose
    forwarded interests they match. Message counters expose the
    covering optimization's savings.

    Delivery is supervised exactly as in {!Broker} (retry/backoff,
    per-subscriber circuit breaker, bounded dead-letter queue), and a
    {!Fault} plan can additionally drop, duplicate, or delay event
    forwards on links and pause brokers — deterministically, so the
    same seed replays the same network-wide failure trace. See
    docs/ROBUSTNESS.md. *)

type t

type node_id = int

val create :
  Genas_model.Schema.t ->
  nodes:int ->
  edges:(node_id * node_id) list ->
  (t, string) result
(** The edge list must form a tree: connected, acyclic, node ids in
    [[0, nodes-1]]. Every broker runs a plain engine with the default
    spec. The per-link forwarded tables are covering lattices, so the
    covered-check that gates subscription propagation scans only
    covering-minimal roots. No faults are injected and delivery runs
    the default retry policy, so routing behavior (delivery order, all
    message counters) is identical to an unsupervised network as long
    as no handler raises. *)

val create_exn :
  Genas_model.Schema.t ->
  nodes:int ->
  edges:(node_id * node_id) list ->
  t

val line :
  ?retry:Supervise.policy ->
  ?faults:Fault.t ->
  ?deadletter_capacity:int ->
  Genas_model.Schema.t ->
  nodes:int ->
  t
(** Brokers 0 — 1 — … — (nodes−1). [retry], [faults], and
    [deadletter_capacity] configure the network-wide delivery
    supervisor and fault plan as in {!Broker.create}. *)

val star : Genas_model.Schema.t -> leaves:int -> t
(** Broker 0 in the center, leaves 1…n around it. *)

type sub_handle

val subscribe :
  t ->
  at:node_id ->
  subscriber:string ->
  profile:Genas_profile.Profile.t ->
  Notification.handler ->
  sub_handle
(** Register a subscription at a broker and propagate it (with covering
    pruning) through the network. *)

val unsubscribe : t -> sub_handle -> bool
(** Retract a subscription network-wide; [false] if the handle was
    already retracted. Retraction recomputes the interest tables from
    the remaining subscriptions (a covered subscription that was never
    forwarded may now have to be, and vice versa); the retraction
    fan-out is charged to [unsub_messages] as the number of forwarded
    entries that disappear {e and} are not covered by a surviving
    entry on the same link — retracting a profile while an equivalent
    or broader one remains live costs no messages, because the
    neighbor's routing obligation is unchanged. Per-broker operation
    counters restart, but
    each broker's engine keeps its learned event statistics
    ({!Genas_core.Engine.refresh_keeping_history}): one churn event
    does not reset distribution-based reordering network-wide. *)

val unsub_messages : t -> int

val publish : t -> at:node_id -> Genas_model.Event.t -> int
(** Inject an event at a broker; returns the number of notifications
    delivered (accepted by their handlers) network-wide. Terminally
    failed deliveries are dead-lettered, never counted. *)

val sub_messages : t -> int
(** Inter-broker subscription-propagation messages sent so far. *)

val event_messages : t -> int
(** Inter-broker event forwards sent so far (a duplicated forward
    counts twice; a dropped one still counts — the message left the
    broker and was lost in transit). *)

val notifications : t -> int

(** {1 Fault and supervision inspection} *)

val link_drops : t -> int
(** Forwards lost to injected link faults. *)

val link_duplicates : t -> int

val link_delays : t -> int

val broker_pauses : t -> int
(** Event arrivals deferred by injected broker pauses. *)

val supervisor : t -> Supervise.t
(** The network-wide delivery supervisor. *)

val deadletter : t -> Deadletter.t

(** {1 Per-broker inspection} *)

val broker_ops : t -> node_id -> Genas_filter.Ops.t
(** Matching-operation counters of one broker's engine. *)

val broker_stats : t -> node_id -> Genas_core.Stats.t
(** One broker's learned statistics (preserved across
    {!unsubscribe}). *)

val interest_count : t -> node_id -> int
(** Size of a broker's interest table (local + forwarded profiles). *)
