(** A relay broker: multi-hop peering over the wire protocol.

    One relay node serves downstream peers ({!Broker_server}) while
    being a client of an upstream broker ({!Broker_client}), spliced
    so that chain and tree topologies deliver {e bit-identically} to a
    single flat {!Router}:

    - downstream subscriptions are mirrored upstream, refcounted by
      profile body and covering-minimized by the client's lattice;
    - downstream publishes forward upstream with their origin
      preserved, buffering in an outbox while the upstream link heals;
    - upstream deliveries re-publish into the served broker, so
      downstream peers receive them under origin-aware no-echo;
    - deliveries originating at this relay or below it are dropped
      before application (they entered the mesh through us).

    Mirrored forwards retire only on explicit downstream unsubscribes
    — a dropped downstream connection keeps its forwards alive so its
    reconnect + replay finds the events it missed (sticky forwards).

    Origin tags are node names: names must be unique mesh-wide.
    See docs/NETWORKING.md, "Multi-hop relays". *)

type t

val create :
  ?journal:Journal.config ->
  ?metrics:Genas_obs.Metrics.t ->
  ?tracer:Genas_obs.Trace.t ->
  ?heartbeat:Transport.heartbeat option ->
  ?reconnect:Supervise.policy ->
  ?deadline_s:float ->
  ?max_queue:int ->
  ?tick_s:float ->
  ?start:bool ->
  name:string ->
  up:Transport.addr ->
  listen:Transport.addr ->
  Genas_model.Schema.t ->
  (t, string) result
(** Create the relay's broker (journaled when [journal] is given — a
    relay that should survive kill/restart of its upstream {e must} be
    journaled or its downstream replays lose history), connect
    upstream (fails if the upstream is unreachable; afterwards the
    [reconnect] policy — on by default — heals the link
    automatically), and start serving [listen]. [start = false] skips
    spawning the accept loop: the caller runs it, e.g.
    [Broker_server.serve ~connections (server t)] for a bounded
    foreground run (the CLI [relay] command).

    With [tracer] (shared by both faces), wire trace contexts flow
    through the relay in both directions: a downstream publish's hop
    span parents the upstream forward, an upstream delivery's context
    parents the downstream re-publish. The relay also answers
    [Status_req] with its own row followed by the rest of its
    upstream chain ({!Broker_server.set_on_status}). *)

val publish : t -> Genas_model.Event.t array -> int
(** Publish at the relay itself: delivered downstream through the
    served broker and forwarded upstream through the outbox, both
    origin-tagged with the relay's name. Returns the local journal
    cursor of the first record. *)

val server : t -> Broker_server.t
(** The downstream face. *)

val client : t -> Broker_client.t
(** The upstream face (reconnects, outbox depth, applied counters). *)

val close : t -> unit
