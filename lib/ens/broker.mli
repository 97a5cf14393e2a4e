(** A single-node event notification service.

    The broker owns a schema, a profile registry, and a
    distribution-based filter engine ({!Genas_core.Engine}, optionally
    with its adaptive drift clock); subscribers register primitive
    profiles — parsed from the profile language or pre-built — or
    composite expressions, and receive callbacks. Publishers may
    consult the broker's quench table to suppress unwanted events at
    the source. *)

type t

type sub_id

val create :
  ?spec:Genas_core.Reorder.spec ->
  ?adaptive:Genas_core.Adaptive.policy ->
  ?metrics:Genas_obs.Metrics.t ->
  ?retry:Supervise.policy ->
  ?faults:Fault.t ->
  ?deadletter_capacity:int ->
  ?journal:Journal.config ->
  ?tracer:Genas_obs.Trace.t ->
  ?aggregate:bool ->
  Genas_model.Schema.t ->
  t
(** [adaptive] is the engine's drift policy ({!Genas_core.Engine.create}):
    periodic distribution-driven re-optimization of the filter tree.

    [aggregate] turns on subscription aggregation in the underlying
    engine ({!Genas_core.Engine.create}): subscribes and unsubscribes
    maintain a covering lattice and the matcher compiles only the
    covering-minimal profile set, so registry churn on a large
    population never blocks the publish path with a full replan.
    Epoch swaps run on the thread that applies the churn (see
    docs/SCALING.md).

    [tracer] attaches end-to-end causal tracing: every {!publish} /
    {!publish_batch} (if sampled) yields one span tree —
    ["broker.publish"] → ["engine.match"] → per-delivery ["deliver"] /
    ["deliver.attempt"] spans → ["journal.append"] and
    ["snapshot.install"] — with the matcher's traversal path attached,
    landing in the tracer's flight-recorder ring. The path is the
    pointer tree's walk of the event ({!Genas_core.Explain.trace} over
    {!Genas_core.Engine.tree}), the one the compiled matcher takes edge
    for edge; only sampled publishes pay for it. An
    injected crash or terminal delivery failure dumps the flight
    recorder ({!Genas_obs.Trace.record_crash}) before propagating. See
    docs/OBSERVABILITY.md, "Tracing".

    [journal] makes the broker durable: every state-changing operation
    is appended to a write-ahead journal in [journal.dir] (a {e fresh}
    journal — any previous contents of the directory are discarded; use
    {!recover} to resume them), and a {!Snapshot} is taken every
    [journal.snapshot_every] operations. A plain broker's snapshot
    records the subscription churn pending in its engine instead of
    folding it, so journaling never moves a fold. See
    docs/ROBUSTNESS.md, "Durability & recovery".

    [metrics] instruments the broker (publish/notification counters,
    per-subscriber delivery counters, quench-cache churn, delivery
    supervision) and is forwarded to the underlying engine and its
    drift clock; see docs/OBSERVABILITY.md for the metric names. Omitted,
    the broker performs no observability work.

    Delivery is always supervised (see {!Supervise} and
    docs/ROBUSTNESS.md): a handler that raises never prevents delivery
    to other subscribers, and the failed notification is dead-lettered.
    [retry] sets the retry/backoff/circuit-breaker policy (default:
    one attempt, no breaker); [deadletter_capacity] bounds the
    dead-letter queue (default 1024); [faults] attaches a deterministic
    fault-injection plan — omitted, no faults are ever injected and
    delivery behavior is identical to an unsupervised broker as long as
    no handler raises. *)

val schema : t -> Genas_model.Schema.t

val subscribe :
  t ->
  subscriber:string ->
  profile:Genas_profile.Profile.t ->
  Notification.handler ->
  sub_id

val subscribe_text :
  t ->
  subscriber:string ->
  string ->
  Notification.handler ->
  (sub_id, string) result
(** Parse the profile-language source and subscribe. *)

val subscribe_composite :
  t ->
  subscriber:string ->
  Composite.expr ->
  Notification.handler ->
  (sub_id, string) result
(** The handler fires once per completed composite occurrence, carrying
    the occurrence's last constituent event. Composite detection is
    stateful over the stream, so events must be published in
    non-decreasing time order once a composite subscription exists
    ({!publish} then raises [Invalid_argument] on a time
    regression). *)

val unsubscribe : t -> sub_id -> bool
(** [true] if the subscription was present. Idempotent: unsubscribing
    the same id again (primitive or composite) is a no-op returning
    [false], and the quench cache is invalidated exactly once per
    actual removal — a repeat unsubscribe never invalidates a fresh
    cache. With [metrics], removing a subscriber name's last
    subscription also drops its [genas_broker_deliveries_total]
    series. *)

val publish : t -> Genas_model.Event.t -> int
(** Filter one event and deliver notifications; returns the number of
    notifications accepted by their handlers. Deliveries that fail
    terminally (handler raised on every attempt, or the subscriber's
    circuit is open) are dead-lettered and not counted — [published],
    [notifications], and the broker metrics stay mutually consistent
    whatever the handlers do. *)

val publish_batch : t -> Genas_model.Event.t array -> int
(** Filter a whole batch ({!Genas_core.Engine.match_batch}), then
    deliver notifications in batch order; returns the total
    notifications sent. Delivery and composite detection run in
    order, so handler-visible behavior is that of publishing the
    events one by one, except that a subscription made by a handler
    during the batch sees none of the batch's events. Instrumented
    brokers record the batch size (histogram). *)

val publish_quenched : t -> Genas_model.Event.t -> int option
(** Consult the quench table first: [None] if the event provably
    matches no subscription (it is then not filtered at all and does
    not enter the statistics history); [Some n] as [publish]
    otherwise. *)

val quench : t -> Quench.t
(** Current quench table (rebuilt on subscription changes). *)

val ops : t -> Genas_filter.Ops.t
(** Cumulative matcher operation counters. *)

val supervisor : t -> Supervise.t
(** The delivery supervisor: retry/failure counters, circuit states,
    and the bounded trace of eventful deliveries. *)

val deadletter : t -> Deadletter.t
(** Terminally failed notifications, oldest first, bounded. *)

val published : t -> int

val notifications : t -> int
(** Notifications accepted by handlers (terminal failures excluded —
    those are visible in {!deadletter} and the supervisor counters). *)

val subscription_count : t -> int

val subscriptions : t -> (sub_id * string) list
(** Live subscriptions with their subscriber names, primitives (by
    profile id) before composites. Lets a caller that did not create a
    subscription — an operator console, or code resuming after
    {!recover} — address it for {!unsubscribe}. *)

val engine : t -> Genas_core.Engine.t
(** The underlying filter engine (for inspection: tree shape, analytic
    reports, statistics). *)

val rebuilds : t -> int
(** Adaptive re-optimizations performed (0 without [adaptive]). *)

(** {1 Tracing} *)

val dump_flight_recorder : t -> string option
(** On-demand text dump of the tracer's flight recorder (held traces,
    spans, statuses, matcher paths); [None] on an untraced broker. *)

(** {1 Durability} *)

val wal : t -> Journal.t option
(** The broker's write-ahead journal, when created with [?journal] or
    by {!recover}. *)

val snapshot_now : t -> unit
(** Take a snapshot immediately (and restart the journal), regardless
    of the cadence. No-op on an unjournaled broker.

    @raise Fault.Crashed under an injected [Crash_mid_snapshot]. *)

val replay_deadletters : t -> int * int
(** Drain the dead-letter queue and push every entry back through the
    supervised delivery path of its original subscription; returns
    [(redelivered, failed)]. A redelivered notification increments
    {!notifications} (and the delivery counters) exactly once; a
    failing one is dead-lettered again by the supervisor — or, when its
    subscription no longer exists, re-queued as is — without being
    picked up twice in the same pass. Journaled brokers record the
    outcome as a single journal operation. *)

val close : t -> unit
(** Close the journal file handle, if any. The broker remains usable
    for in-memory operation; further journaled operations will fail. *)

val recover :
  ?spec:Genas_core.Reorder.spec ->
  ?adaptive:Genas_core.Adaptive.policy ->
  ?metrics:Genas_obs.Metrics.t ->
  ?retry:Supervise.policy ->
  ?faults:Fault.t ->
  ?deadletter_capacity:int ->
  ?tracer:Genas_obs.Trace.t ->
  ?aggregate:bool ->
  ?handlers:(subscriber:string -> Notification.handler) ->
  journal:Journal.config ->
  Genas_model.Schema.t ->
  (t, string) result
(** Rebuild a broker from [journal.dir]: read the snapshot (if any),
    truncate a torn or corrupt journal tail, and replay the remaining
    operations. The recovered broker continues journaling in place.

    Handlers are code and cannot be journaled; [handlers] re-binds each
    subscriber name to a callback (default: a silent sink). For the
    recovered broker to be {e bit-identical} to an uncrashed one —
    matching decisions, learned distributions, tree shape after the
    next rebuild, counters, dead-letter queue — pass the same [spec],
    [adaptive], and [retry] the original was created with, and handlers
    with the same accept/raise behavior.

    Known limits (documented in docs/ROBUSTNESS.md): composite detector
    state {e spanning} a snapshot boundary is not captured (occurrences
    straddling the snapshot are regrown only from post-snapshot
    events), the statistics' {e assumed} (provider-declared)
    distributions are not persisted, and an [aggregate] broker
    recovered from a snapshot taken with structural churn pending is
    not bit-identical: its snapshot records no pending churn, so
    recovery compiles every root. It delivers the same notifications,
    but its epoch, pending count and comparisons per event differ from
    the uncrashed broker's. *)
