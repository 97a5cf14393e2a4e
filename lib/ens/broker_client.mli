(** A downstream broker node: local matching, covering-gated upstream
    forwarding, and journal-cursor catch-up over the wire.

    The client owns a full in-memory {!Broker.t} holding every local
    subscription; handlers fire through the normal supervised delivery
    path whether the triggering event was published locally or arrived
    as a [Deliver] frame. Upstream it forwards only the covering-
    minimal roots of its own subscription lattice — the paper's
    covering relation applied {e across the link}: a subscription
    covered by an already-forwarded profile sends nothing, and a new
    broader profile retires the narrower forwards it demotes
    ({!wire_subscribes}/{!wire_unsubscribes} count the actual frames).
    Delivered events are re-matched locally, so absorbed subscriptions
    still receive exactly their own matches.

    Delivery semantics: the transport is at-least-once (link faults
    duplicate or delay frames; replay overlaps live delivery); applied
    (cursor, idx) pairs are remembered and duplicates dropped, making
    local application exactly-once relative to the server's journal.
    After a disconnect, {!reconnect} re-sends the forwarded set and
    {!replay} redelivers everything after its completeness cursor (the
    journal cursor up to which it is known complete) out of the
    server's WAL. See docs/NETWORKING.md.

    Self-healing (docs/ROBUSTNESS.md): every request takes the
    connection's [deadline_s] and surfaces [Error "timeout"] instead
    of blocking forever; a ticker thread pings idle links, reaps a
    link silent past the heartbeat deadline, and — when a [reconnect]
    policy is given — redials with capped exponential backoff and
    seeded jitter, re-sends the forwarded set, and replays from the
    completeness cursor, so a server kill/restart cycle needs no
    operator action. *)

type t

val connect :
  ?name:string ->
  ?deadline_s:float ->
  ?heartbeat:Transport.heartbeat option ->
  ?reconnect:Supervise.policy ->
  ?max_backoff_s:float ->
  ?metrics:Genas_obs.Metrics.t ->
  ?tracer:Genas_obs.Trace.t ->
  ?tick_s:float ->
  ?auto_drain:bool ->
  ?on_deliver:
    (cursor:int ->
    idx:int ->
    origin:string ->
    ctx:Transport.ctx ->
    Genas_model.Event.t ->
    unit) ->
  ?skip_origin:(string -> bool) ->
  ?local:Broker.t ->
  Genas_model.Schema.t ->
  Transport.addr ->
  (t, string) result
(** Dial, handshake (protocol version + schema fingerprint, under a
    kernel receive deadline), and start the receiver and ticker
    threads. The schema must fingerprint-identically match the
    server's or the handshake is rejected.

    [name] must be unique within a mesh (it is the origin tag for
    no-echo). [deadline_s] (default 30) bounds the handshake and every
    acknowledged request. [heartbeat] (default
    {!Transport.default_heartbeat}; [None] disables liveness) governs
    idle pings and the silent-link reap. [reconnect] arms automatic
    redial: attempts are scheduled at capped ([max_backoff_s], default
    30) exponential backoff with the policy's multiplier and seeded
    jitter; each successful redial re-sends the forwarded set and
    replays from the completeness cursor. [tick_s] (default 0.02) is
    the ticker granularity — also the resolution of request
    deadlines.
    [auto_drain] applies queued deliveries from the ticker (relays
    need this; interactive callers use {!drain}/{!await_deliveries}).
    The receive mailbox holds at most 65,536 frames — overflow tears
    the link down rather than growing without limit.

    With [tracer], {!publish} runs under a [net.publish] root span
    whose context travels on the wire, and every applied delivery runs
    under a [net.apply] span adopting the [Deliver] frame's context —
    so one publish's causal tree spans every process it touched
    (stitch with {!Genas_obs.Trace.merge_dumps}).

    Relay hooks: [on_deliver] replaces local-broker application
    entirely ([ctx] is the frame's wire trace context, to propagate
    further); [skip_origin] drops a delivery whose (non-empty) origin
    it accepts before application — the cross-hop no-echo predicate.
    [local] substitutes a caller-owned broker for the client's own
    (the caller then also owns its lifecycle). *)

val reconnect : t -> (unit, string) result
(** Drop any current connection, redial, and re-send the forwarded
    subscription set. Cursors and the applied set survive, so a
    following {!replay} is deduplicated. Automatic redial (the
    [reconnect] policy) calls this machinery itself — manual use is
    only needed without a policy. *)

val drop_link : t -> unit
(** Tear down the current connection eagerly (shutdown, join the
    receiver, close) without touching subscriptions or cursors. With
    a redial policy armed this schedules an immediate reconnect —
    which makes it double as a deterministic link-partition
    injection. *)

val close : t -> unit

val connected : t -> bool

val local : t -> Broker.t
(** The local broker (all local subscriptions, local counters). *)

(** {1 Operations} *)

val subscribe :
  t ->
  ?subscriber:string ->
  string ->
  Notification.handler ->
  (int, string) result
(** [subscribe t body handler] parses profile-language [body],
    subscribes locally, and forwards upstream {e only if} the profile
    becomes a new covering root. Returns the subscription token. *)

val unsubscribe : t -> int -> (unit, string) result
(** Remove a local subscription; upstream forwards are re-synced to
    the new covering-minimal set (an absorbed profile's removal sends
    nothing; a root's removal may promote formerly-covered ones). *)

val publish : t -> Genas_model.Event.t -> (int, string) result
(** Deliver locally first (origin-node matching), then publish
    upstream and wait for the acknowledgement (bounded by
    [deadline_s]). Returns the local notification count. The
    acknowledged journal cursors are marked applied so a later replay
    never re-delivers the client's own events. *)

val replay : t -> (int * bool, string) result
(** Request catch-up from the completeness cursor: the server
    re-delivers every retained matching publish after it. Returns
    [(newly_applied, complete)]; [complete = false] means a server
    snapshot discarded part of the range. Advances the completeness
    cursor to the server cursor. *)

(** {1 Relay plumbing}

    Used by {!Relay} to splice a client into a served broker; exposed
    for custom topologies. *)

val forward_profile : t -> ?subscriber:string -> string -> (int, string) result
(** Forward a profile upstream {e without} a local handler (the
    caller's own delivery path — a relay's served broker — handles
    matched events). Covering-gated like {!subscribe}. Wire errors
    are swallowed: the forwarded set is re-synced wholesale on
    reconnect. *)

val retire_profile : t -> int -> unit
(** {!unsubscribe} with the result ignored: remove a {!forward_profile}
    (or any) subscription token; unknown tokens are ignored. *)

val forward_up :
  ?ctx:Transport.ctx -> t -> origin:string -> Genas_model.Event.t array -> unit
(** Queue an origin-tagged batch for upstream publication and flush
    what the link allows. Batches survive link loss in an outbox and
    are re-sent (in order) after reconnect; acknowledged cursors are
    marked applied so upstream replay never echoes them back. [ctx]
    rides the upstream [Publish] frame so the next hop's span parents
    under the span it was captured from. *)

val outbox_depth : t -> int
(** Batches queued in {!forward_up}'s outbox (0 when the link is
    healthy and caught up). *)

(** {1 Receiving} *)

val drain : t -> int
(** Apply every delivery already queued by the receive thread, without
    blocking. Returns the number applied (duplicates excluded). *)

val await_deliveries : ?timeout:float -> t -> int -> int
(** Block until [n] deliveries were applied by this call or [timeout]
    (default 5s) elapses; returns the number applied. Event-driven:
    the caller parks on the inbox condition variable and is woken by
    the receiver thread on every push (and by the ticker each tick, so
    the deadline holds even on a silent link). *)

(** {1 Chaos hooks} *)

val pause_rx : t -> unit
(** Stop the receiver between frames — the deterministic stand-in for
    a stalled consumer: kernel buffers fill until the server's bounded
    queue trips its slow-consumer policy. *)

val resume_rx : t -> unit

(** {1 Introspection} *)

val status_request : t -> (Transport.node_status list, string) result
(** One [Status_req]/[Status] round trip (bounded by [deadline_s]):
    the upstream node's status first, then — when the upstream is a
    relay — the rest of its chain in hop order. Deliveries arriving
    while waiting are applied as usual. *)

val upstream : t -> string
(** The connected server's node name (from its [Welcome]; [""] before
    the first successful handshake). *)

val applied_total : t -> int
(** Remote deliveries applied locally (lifetime). *)

val duplicates_dropped : t -> int
(** Deliveries dropped by (cursor, idx) dedup — duplicate link faults
    and replay overlap. *)

val heartbeat_misses : t -> int
(** Links dropped by this client after a silent heartbeat deadline. *)

val reconnects : t -> int
(** Successful automatic redials. *)

val forwarded_tokens : t -> int list
(** Tokens currently forwarded upstream (the covering-minimal roots),
    ascending. *)

val wire_subscribes : t -> int
(** [Subscribe] frames actually sent (covering suppresses the rest). *)

val wire_unsubscribes : t -> int
