(** A networked broker: serve the {!Transport} wire protocol over a
    listening socket.

    The server wraps an existing {!Broker.t} (so it composes with
    [Broker.recover] for crash-restart) and runs one thread per
    accepted connection, with every broker operation serialized under
    one lock. Remote subscriptions install ordinary broker handlers
    that queue events per connection; after each publish the queues
    flush as [Deliver] frames tagged with the journal cursor of the
    publish record — skipping the originating connection and any
    connection whose peer name equals the event's origin (its local
    broker already delivered; the {!Router} no-echo rule on the wire,
    made reconnect- and relay-proof by the origin tag).

    Robustness (docs/ROBUSTNESS.md): every connection owns a bounded
    outbound queue drained by a dedicated writer thread — a stalled
    consumer can neither block the broker lock nor grow memory without
    limit. At [max_queue] queued frames the peer is declared a slow
    consumer and disconnected; journal-backed replay is its catch-up
    path. A liveness monitor pings idle peers and reaps connections
    silent past the heartbeat deadline, so half-dead TCP endpoints
    (no FIN) are detected and collected.

    Durability and catch-up: on a journaled broker each accepted event
    is one WAL record, acknowledged with its op index; a reconnecting
    client sends [Replay { since }] and receives every retained record
    after its cursor filtered through its own subscriptions, out of
    {!Journal.events_since}. A deterministic {!Fault} plan applies
    [link_fate ~src:0 ~dst:conn_id] to live deliveries (drop /
    duplicate / delay); control frames and replay are never faulted.
    An injected journal crash ({!Fault.Crashed}) stops the server —
    simulated process death — and clients recover via reconnect +
    replay against a [Broker.recover]ed instance.

    An aggregated broker's epoch swaps run on the thread that applies
    the triggering subscribe or unsubscribe, as they do in-process and
    on journal replay; the server spawns no domain for them. *)

type t

val create :
  ?faults:Fault.t ->
  ?name:string ->
  ?role:string ->
  ?tracer:Genas_obs.Trace.t ->
  ?max_queue:int ->
  ?sndbuf:int ->
  ?heartbeat:Transport.heartbeat option ->
  ?tick_s:float ->
  ?metrics:Genas_obs.Metrics.t ->
  ?on_accept:
    (conn_id:int ->
    origin:string ->
    ctx:Transport.ctx ->
    Genas_model.Event.t array ->
    unit) ->
  ?on_subscribe:
    (conn_id:int -> token:int -> subscriber:string -> body:string -> unit) ->
  ?on_unsubscribe:(conn_id:int -> token:int -> body:string -> unit) ->
  broker:Broker.t ->
  Transport.addr ->
  t
(** Frames use {!Transport.default_seed} and are bounded by
    {!Codec.default_max_frame}: hostile length prefixes fail before
    allocation. [name] is this node's mesh name
    (default ["server"]) — events it publishes locally carry it as
    origin, and it must be unique within a mesh for no-echo to be
    sound. [role] only labels metrics and [Status] rows (default
    ["server"]; a relay's embedded server passes ["relay"]).
    [max_queue] (default 1024) bounds each connection's
    outbound queue; exceeding it triggers the slow-consumer
    disconnect. [sndbuf] shrinks accepted sockets' kernel send
    buffers (tests use it to trip backpressure deterministically).
    [heartbeat] (default {!Transport.default_heartbeat}; [None]
    disables liveness entirely) and [tick_s] (default 0.05) drive the
    monitor thread. [metrics] registers the [genas_net_*] family.

    With [tracer], every received publish runs under a hop span
    ([net.rx_publish]) that adopts the frame's wire trace context, and
    outgoing [Deliver] frames carry this hop's context — so a publish
    at a leaf of a relay chain and its delivery at the root share one
    trace id, stitchable with {!Genas_obs.Trace.merge_dumps}.

    Relay hooks, all invoked {e outside} the broker lock:
    [on_accept] after a remote publish is applied (with its origin
    resolved — an empty wire origin means the publishing peer
    itself — and [ctx] the context to propagate on the upstream
    forward: the received hop's own span when tracing, the wire
    context unchanged otherwise); [on_subscribe] after a {e new}
    remote subscription is installed but {e before} its [Ack] is sent,
    so once a subscriber sees the Ack the whole upstream path has the
    profile; [on_unsubscribe] after an explicit remote unsubscribe
    (not on connection drop — see {!Relay} for why forwards stay
    sticky).

    The server borrows [broker] — the caller keeps ownership and may
    publish/subscribe locally through it concurrently via
    {!publish}. *)

val serve : ?connections:int -> t -> unit
(** Run the accept loop on the calling thread. [connections = n]
    accepts exactly [n] connections and returns once all have
    disconnected (the CLI [serve] entry point for scripted runs);
    [0] (default) loops until {!stop} from another thread. *)

val start : t -> unit
(** Spawn the accept loop on a background thread and return. *)

val stop : t -> unit
(** Close the listener and every connection and join all threads. *)

val publish :
  ?origin:string ->
  ?via:string ->
  ?ctx:Transport.ctx ->
  t ->
  Genas_model.Event.t array ->
  int
(** Publish locally on the server node (one journal record per event)
    and flush deliveries to every connection. [origin] (default the
    server's own [name]) tags the deliveries for cross-hop no-echo —
    a relay re-publishing an upstream delivery into its local broker
    passes the original publisher's name through. With a [tracer],
    [ctx] (a wire trace context received with the event) is adopted
    for the publish's hop span and [via] names the peer that sent it.
    Returns the cursor of the first record. *)

val connections : t -> int
(** Currently connected peers. *)

val cursor : t -> int
(** The op index the next accepted publish record will carry. *)

val slow_disconnects : t -> int
(** Connections dropped by the bounded-queue slow-consumer policy. *)

val reaped : t -> int
(** Connections reaped by the liveness monitor after missing the
    heartbeat deadline. *)

(** {1 Mesh introspection} *)

val status : t -> Transport.node_status
(** This node's own status row: name, role, journal cursor ([-1]
    unjournaled), live connections with per-peer queue depth and
    receive age, uptime, and — when a metrics registry is attached —
    every counter's current value. *)

val set_on_status : t -> (unit -> Transport.node_status list) -> unit
(** Install the [Status_req] answerer. A relay uses this to prepend
    its own {!status} to the rows collected from the rest of its
    upstream chain; without it a request answers with [[status t]]. *)

