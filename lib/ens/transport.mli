(** Wire transport for networked brokers.

    One {!message} is one {!Codec} frame on a stream socket: a u32 LE
    length prefix, a seeded FNV-1a 64 checksum, and a tagged binary
    payload using the same event/value encodings as the write-ahead
    journal. Frames are read through {!Codec.read_frame}, so a torn,
    oversized, or bit-flipped frame surfaces as a decode error before
    any allocation trusts the peer's length field.

    The protocol (see docs/NETWORKING.md): a client opens with [Hello]
    carrying the protocol version and its schema fingerprint; the
    server answers [Welcome] (with its current journal cursor) or
    [Reject]. Requests ([Subscribe]/[Unsubscribe]/[Publish]/[Replay])
    carry a client-chosen token echoed in [Ack]/[Nack]; [Deliver]
    frames arrive unsolicited, each tagged with the journal cursor of
    the publish record it came from so receivers deduplicate
    at-least-once delivery into exactly-once local application. *)

val protocol_version : int

val now_s : unit -> float
(** Monotonic seconds from {!Genas_obs.Clock} — the time base for
    every liveness deadline and request timeout in the networking
    stack, so tests can fake it. *)

(** {1 Liveness} *)

type heartbeat = { period_s : float; misses : int }
(** Idle-link liveness policy: after [period_s] without receiving
    anything a peer sends [Ping]; after [misses] periods with nothing
    received the link is declared half-dead and reaped. *)

val default_heartbeat : heartbeat
(** 5 s period, 3 misses (15 s detection deadline). *)

val heartbeat : ?period_s:float -> ?misses:int -> unit -> heartbeat
(** @raise Invalid_argument unless [period_s > 0] and [misses >= 1]. *)

val deadline_of : heartbeat -> float
(** [period_s *. misses]: seconds of received silence that count as a
    dead peer. *)

(** {1 Addresses} *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** Parse ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val addr_to_string : addr -> string

val sockaddr_of : addr -> Unix.sockaddr
(** Resolve to a [Unix.sockaddr] (TCP hosts via [getaddrinfo]).

    @raise Failure when a TCP host cannot be resolved. *)

(** {1 Messages} *)

type ctx = (int * int) option
(** Optional wire trace context: the sender's active
    [(trace id, parent span id)] pair ({!Genas_obs.Trace.context}),
    adopted on the receiving node with
    {!Genas_obs.Trace.with_remote_trace} so hop spans parent correctly
    across processes. [None] when the sender traces nothing. *)

type peer_status = {
  ps_name : string;  (** peer node name ([""] before its Hello) *)
  ps_state : string;  (** ["up"], ["draining"], ... *)
  ps_queue : int;  (** frames queued toward this peer *)
  ps_last_rx_s : float;  (** seconds since last received frame *)
}

type node_status = {
  ns_node : string;
  ns_role : string;  (** ["server"], ["relay"], ["client"] *)
  ns_cursor : int;  (** journal cursor, [-1] when unjournaled *)
  ns_connections : int;
  ns_uptime_s : float;
  ns_peers : peer_status list;
  ns_counters : (string * int) list;
      (** counter snapshots from the node's metrics registry *)
}
(** One node's introspection snapshot, as carried by [Status]. *)

type message =
  | Hello of { version : int; fingerprint : string; name : string }
  | Welcome of {
      version : int;
      fingerprint : string;
      cursor : int;
      name : string;
          (** the server's node name, so downstream peers can label
              remote spans and status rows *)
    }
  | Reject of { reason : string }
  | Subscribe of { token : int; subscriber : string; body : string }
      (** [body] is profile-language source — the same re-parse
          contract as {!Store} and the journal *)
  | Unsubscribe of { token : int }
  | Publish of {
      token : int;
      origin : string;
          (** node name of the {e original} publisher — a relay
              forwarding downstream traffic upstream preserves it, so
              no-echo works across hops (names must be unique within a
              mesh; see docs/NETWORKING.md) *)
      events : Genas_model.Event.t array;
      ctx : ctx;
    }
  | Ack of { token : int; cursor : int; count : int }
      (** for a publish: the journal op index its record carries
          ([-1] unjournaled) and the number of events accepted *)
  | Nack of { token : int; reason : string }
  | Deliver of {
      cursor : int;  (** journal op index of the carrying record *)
      idx : int;  (** position within that record's event array *)
      replay : bool;  (** catch-up replay, not a live delivery *)
      origin : string;
          (** originating node name ([""] on journal replay — the WAL
              does not retain provenance) *)
      event : Genas_model.Event.t;
      ctx : ctx;
    }
  | Replay of { since : int; ctx : ctx }
      (** request redelivery of every journaled publish with op index
          [> since] that matches this connection's subscriptions *)
  | Replay_done of { cursor : int; complete : bool }
      (** [complete = false]: a snapshot discarded part of the range *)
  | Bye
  | Ping of { token : int }
      (** liveness probe; the receiver answers [Pong] with the same
          token. Any received frame counts as liveness — pings only
          flow on otherwise-idle links. *)
  | Pong of { token : int }
  | Status_req of { token : int }
      (** mesh introspection probe: the receiver answers [Status] with
          the same token, its own {!node_status}, and — on a relay —
          the statuses collected from the rest of its upstream chain *)
  | Status of { token : int; nodes : node_status list }
      (** answering node first, then upstream nodes in hop order *)

val encode_message : message -> string

val decode_message : Genas_model.Schema.t -> string -> message
(** @raise Codec.Corrupt on a malformed payload. *)

val message_name : message -> string

(** {1 Connections} *)

type conn

val default_seed : int
(** The frame-checksum seed every connection uses; a peer framing with
    another seed fails every checksum. Frames are bounded by
    {!Codec.default_max_frame}. *)

val conn_fd : conn -> Unix.file_descr

val send : conn -> message -> unit
(** Frame and write one message (mutex-serialized per connection —
    deliveries fan out from other connections' threads). *)

val recv :
  conn ->
  Genas_model.Schema.t ->
  (message, [ `Eof | `Corrupt of string ]) result
(** Block for the next frame. [`Eof] is a clean close between frames;
    anything undecodable — torn frame, checksum mismatch, hostile
    length, bad tag — is [`Corrupt]. *)

val set_recv_timeout : conn -> float option -> unit
(** Set ([Some seconds]) or clear ([None]) a kernel receive deadline
    ([SO_RCVTIMEO]) on the connection: a blocked {!recv} then fails
    with [`Eof] instead of parking forever. Only safe around the
    handshake — a mid-stream timeout desyncs the frame boundary, so
    the connection must be abandoned after one fires. *)

val shutdown_conn : conn -> unit
(** [shutdown(2)] both directions, waking any thread blocked in
    {!recv} with [`Eof] — closing the descriptor alone does not.
    Always shut down before joining a receiver thread. *)

val close_conn : conn -> unit

(** {1 Listening and dialing} *)

val listen : addr -> Unix.file_descr
(** Bind and listen (backlog 16). A stale Unix-domain socket file is
    replaced; TCP sockets set [SO_REUSEADDR]. *)

val accept : Unix.file_descr -> conn
(** Block for one inbound connection. *)

val dial : addr -> conn
