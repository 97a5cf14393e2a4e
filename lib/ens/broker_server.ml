(* A networked broker: one OS process serving the Codec wire protocol
   over a listening socket, one thread per connection, all broker state
   serialized under a single lock (the broker itself is the paper's
   single-node engine — the transport adds fan-out, not parallelism).

   Delivery: a remote subscription installs a normal broker handler
   that queues the event on its connection; after the publish returns,
   the queues flush as [Deliver] frames tagged with the journal cursor
   of the publish record, skipping both the originating connection and
   any connection whose peer name equals the event's origin (its own
   local broker already delivered — the Router's no-echo rule, made
   reconnect- and relay-proof by the origin tag). The deterministic
   link-fault plan applies to live deliveries only: control frames and
   catch-up replay are never faulted, mirroring how {!Router.route}
   faults forwarding but not subscription management.

   Robustness (see docs/ROBUSTNESS.md):
   - Every connection owns a bounded outbound queue drained by a
     writer thread, so a stalled consumer can never block the broker
     lock or grow memory without limit; at [max_queue] the connection
     is declared a slow consumer and dropped — journal-backed replay
     is its graceful catch-up path.
   - A liveness monitor pings idle peers and reaps connections that
     have received nothing for [heartbeat.period_s * misses] seconds,
     so a half-dead TCP peer (no FIN) is detected and collected. *)

module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Profile = Genas_profile.Profile
module Lang = Genas_profile.Lang
module Metrics = Genas_obs.Metrics
module Trace = Genas_obs.Trace
module Clock = Genas_obs.Clock

let log_src = Logs.Src.create "genas.server" ~doc:"GENAS broker server"

module Log = (val Logs.src_log log_src)

type conn_state = {
  id : int;
  conn : Transport.conn;
  mutable peer : string;
  subs : (int, Broker.sub_id * Profile.t * string) Hashtbl.t;
  mutable pending : (int * int * string * Event.t) list;  (* newest first *)
  mutable delayed : (int * int * string * Event.t) list;
  mutable alive : bool;
  (* Outbound: a bounded queue drained by a dedicated writer thread.
     Enqueueing never blocks and never touches the broker lock. Each
     entry is stamped at enqueue so the writer can observe how long it
     sat queued ([genas_net_queue_wait_ns]). *)
  txq : (Transport.message * int64) Queue.t;
  tx_mutex : Mutex.t;
  tx_cond : Condition.t;
  mutable tx_stop : bool;
  mutable tx_thread : Thread.t option;
  mutable last_rx : float;
  mutable last_tx : float;
}

type hooks = {
  on_accept :
    (conn_id:int ->
    origin:string ->
    ctx:Transport.ctx ->
    Event.t array ->
    unit)
    option;
  on_subscribe :
    (conn_id:int -> token:int -> subscriber:string -> body:string -> unit)
    option;
  on_unsubscribe : (conn_id:int -> token:int -> body:string -> unit) option;
}

type t = {
  broker : Broker.t;
  addr : Transport.addr;
  name : string;
  role : string;
  tracer : Trace.t option;
  metrics : Metrics.t option;
  started_s : float;
  max_queue : int;
  sndbuf : int option;
  heartbeat : Transport.heartbeat option;
  tick_s : float;
  faults : Fault.t option;
  hooks : hooks;
  lock : Mutex.t;
  conns : (int, conn_state) Hashtbl.t;
  mutable next_conn : int;
  mutable plain_cursor : int;  (* op counter for unjournaled brokers *)
  mutable cur_cursor : int;  (* cursor of the publish in flight *)
  mutable cur_origin : string;  (* origin of the publish in flight *)
  mutable lsock : Unix.file_descr option;
  mutable acceptor : Thread.t option;
  mutable monitor : Thread.t option;
  mutable workers : Thread.t list;
  mutable closed_conns : int;
  mutable slow_disconnects : int;
  mutable reaped : int;
  mutable pings_sent : int;
  mutable stopping : bool;
  mutable crashed : bool;
  (* Mesh introspection: with [None] a [Status_req] answers with this
     node's own snapshot; a relay installs a collector that appends
     the statuses gathered from the rest of its upstream chain. *)
  mutable on_status : (unit -> Transport.node_status list) option;
  m_connections : Metrics.gauge option;
  m_queue_depth : Metrics.histogram option;
  m_slow : Metrics.counter option;
  m_hb_misses : Metrics.counter option;
  m_rx_apply : Metrics.histogram option;
  m_queue_wait : Metrics.histogram option;
}

let create ?faults ?(name = "server") ?(role = "server") ?tracer
    ?(max_queue = 1024) ?sndbuf
    ?(heartbeat = Some Transport.default_heartbeat) ?(tick_s = 0.05) ?metrics
    ?on_accept ?on_subscribe ?on_unsubscribe ~broker addr =
  if max_queue < 1 then
    invalid_arg "Broker_server.create: max_queue must be >= 1";
  (* A peer that disconnects mid-write must surface as [Sys_error],
     not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let labels = [ ("node", name); ("role", role) ] in
  let m_connections =
    Option.map
      (fun m ->
        Metrics.gauge m ~labels ~help:"Live peer connections"
          "genas_net_peer_state")
      metrics
  and m_queue_depth =
    Option.map
      (fun m ->
        Metrics.histogram m ~labels
          ~help:"Outbound frames queued per connection at enqueue time"
          ~buckets:(Metrics.exponential_buckets ~start:1.0 ~factor:2.0 ~count:13)
          "genas_net_outbound_queue_depth")
      metrics
  and m_slow =
    Option.map
      (fun m ->
        Metrics.counter m ~labels
          ~help:"Connections dropped by the bounded-queue slow-consumer policy"
          "genas_net_slow_consumer_disconnects_total")
      metrics
  and m_hb_misses =
    Option.map
      (fun m ->
        Metrics.counter m ~labels
          ~help:"Peers reaped after missing the heartbeat deadline"
          "genas_net_heartbeat_misses_total")
      metrics
  and m_rx_apply =
    Option.map
      (fun m ->
        Metrics.histogram m ~labels
          ~help:"Time applying one received publish batch, ns"
          "genas_net_rx_apply_duration_ns")
      metrics
  and m_queue_wait =
    Option.map
      (fun m ->
        Metrics.histogram m ~labels
          ~help:"Outbound frame wait between enqueue and socket write, ns"
          "genas_net_queue_wait_ns")
      metrics
  in
  {
    broker;
    addr;
    name;
    role;
    tracer;
    metrics;
    started_s = Transport.now_s ();
    max_queue;
    sndbuf;
    heartbeat;
    tick_s;
    faults;
    hooks = { on_accept; on_subscribe; on_unsubscribe };
    lock = Mutex.create ();
    conns = Hashtbl.create 8;
    next_conn = 1;
    plain_cursor = 0;
    cur_cursor = -1;
    cur_origin = "";
    lsock = None;
    acceptor = None;
    monitor = None;
    workers = [];
    closed_conns = 0;
    slow_disconnects = 0;
    reaped = 0;
    pings_sent = 0;
    stopping = false;
    crashed = false;
    on_status = None;
    m_connections;
    m_queue_depth;
    m_slow;
    m_hb_misses;
    m_rx_apply;
    m_queue_wait;
  }

let slow_disconnects t = t.slow_disconnects

let reaped t = t.reaped

let cursor t =
  match Broker.wal t.broker with
  | Some j -> Journal.ops_logged j
  | None -> t.plain_cursor

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_conn_gauge t n =
  Option.iter (fun g -> Metrics.Gauge.set g (float_of_int n)) t.m_connections

(* {1 Outbound queues} *)

(* Declare a connection dead and wake everything parked on it: the
   writer (via cond broadcast), the reader (via shutdown -> EOF), and
   a writer blocked inside send(2) on a full kernel buffer (shutdown
   fails the write). Safe under the broker lock — takes only the tx
   mutex. *)
let kill_conn cs =
  cs.alive <- false;
  Transport.shutdown_conn cs.conn;
  Mutex.lock cs.tx_mutex;
  Condition.broadcast cs.tx_cond;
  Mutex.unlock cs.tx_mutex

(* Enqueue one outbound frame. Never blocks: at [max_queue] queued
   frames the peer is a slow consumer and the policy is
   disconnect-and-let-replay-catch-up — the journal already holds
   everything the peer will have missed. *)
let enqueue t cs msg =
  if cs.alive then begin
    Mutex.lock cs.tx_mutex;
    let depth = Queue.length cs.txq + 1 in
    if depth > t.max_queue then begin
      Mutex.unlock cs.tx_mutex;
      t.slow_disconnects <- t.slow_disconnects + 1;
      Option.iter Metrics.Counter.incr t.m_slow;
      Log.warn (fun m ->
          m "conn %d (%s): slow consumer at %d queued frames, dropping" cs.id
            cs.peer t.max_queue);
      kill_conn cs
    end
    else begin
      Queue.push (msg, Clock.now_ns ()) cs.txq;
      Condition.signal cs.tx_cond;
      Mutex.unlock cs.tx_mutex;
      Option.iter
        (fun h -> Metrics.Histogram.observe h (float_of_int depth))
        t.m_queue_depth
    end
  end

(* Writer thread: drain the queue in order; exit once the connection
   is dead, or once it is stopping and the queue is flushed. *)
let tx_loop t cs =
  let rec loop () =
    Mutex.lock cs.tx_mutex;
    while Queue.is_empty cs.txq && cs.alive && not cs.tx_stop do
      Condition.wait cs.tx_cond cs.tx_mutex
    done;
    match Queue.take_opt cs.txq with
    | None ->
      (* stopping (flushed) or dead *)
      Mutex.unlock cs.tx_mutex
    | Some (msg, enq_ns) -> (
      Mutex.unlock cs.tx_mutex;
      Option.iter
        (fun h ->
          Metrics.Histogram.observe h
            (Int64.to_float (Int64.sub (Clock.now_ns ()) enq_ns)))
        t.m_queue_wait;
      match Transport.send cs.conn msg with
      | () ->
        cs.last_tx <- Transport.now_s ();
        loop ()
      | exception (Sys_error _ | Unix.Unix_error _) -> kill_conn cs)
  in
  loop ()

let stop_tx cs =
  Mutex.lock cs.tx_mutex;
  cs.tx_stop <- true;
  Condition.broadcast cs.tx_cond;
  Mutex.unlock cs.tx_mutex;
  match cs.tx_thread with
  | Some th ->
    cs.tx_thread <- None;
    (try Thread.join th with _ -> ())
  | None -> ()

(* One [Deliver] per (connection, event) even when several of the
   connection's subscriptions match: within one publish the same
   physical event reaches every matching handler consecutively, so a
   head check suffices. *)
let enqueue_delivery t cs (n : Notification.t) =
  let ev = n.Notification.event in
  match cs.pending with
  | (_, _, _, e) :: _ when e == ev -> ()
  | _ -> cs.pending <- (t.cur_cursor, 0, t.cur_origin, ev) :: cs.pending

let link_fate t cs =
  match t.faults with
  | None -> `Forward
  | Some f -> Fault.link_fate f ~src:0 ~dst:cs.id

(* Flush queued deliveries after a publish, applying the link-fault
   plan per frame. Delayed frames from the previous flush go out first
   (they are "late", not lost); the originating connection's queue is
   discarded unsent, as is any entry whose origin names the peer — the
   no-echo rule, by connection for the local hop and by origin name
   across hops and reconnects. Called under the lock. *)
let flush_deliveries ?(skip = -1) t =
  (* Captured once per flush, inside the publish's trace if one is
     open: every Deliver of this publish carries the same context, so
     a downstream peer's apply span parents under this hop's publish
     span. *)
  let ctx =
    match t.tracer with None -> None | Some tr -> Trace.context tr
  in
  Hashtbl.iter
    (fun _ cs ->
      let pending = List.rev cs.pending in
      cs.pending <- [];
      if cs.id = skip then ()
      else begin
        let echo (_, _, origin, _) = origin <> "" && String.equal origin cs.peer in
        let late = List.rev cs.delayed in
        cs.delayed <- [];
        List.iter
          (fun ((cur, idx, origin, event) as entry) ->
            (* A delayed frame belongs to an earlier publish; carrying
               this flush's context would parent it under the wrong
               span, so it travels context-free. *)
            if not (echo entry) then
              enqueue t cs
                (Transport.Deliver
                   { cursor = cur; idx; replay = false; origin; event;
                     ctx = None }))
          late;
        List.iter
          (fun ((cur, idx, origin, event) as entry) ->
            if echo entry then ()
            else
              match link_fate t cs with
              | `Forward ->
                enqueue t cs
                  (Transport.Deliver
                     { cursor = cur; idx; replay = false; origin; event; ctx })
              | `Duplicate ->
                let d =
                  Transport.Deliver
                    { cursor = cur; idx; replay = false; origin; event; ctx }
                in
                enqueue t cs d;
                enqueue t cs d
              | `Drop -> ()
              | `Delay -> cs.delayed <- entry :: cs.delayed)
          pending
      end)
    t.conns

(* Publish a batch of events through the broker, one journal record
   per event (so cursors are dense and the acknowledgement can name
   the whole range), then flush deliveries. Returns the cursor of the
   first record. Called under the lock. *)
let publish_locked ?(skip = -1) ?origin t events =
  let origin = match origin with Some o -> o | None -> t.name in
  let first = cursor t in
  (try
     Array.iter
       (fun ev ->
         t.cur_cursor <- cursor t;
         t.cur_origin <- origin;
         ignore (Broker.publish t.broker ev);
         if Broker.wal t.broker = None then
           t.plain_cursor <- t.plain_cursor + 1)
       events
   with Fault.Crashed _ as e ->
     t.crashed <- true;
     t.stopping <- true;
     raise e);
  flush_deliveries ~skip t;
  first

(* Run [f] under the server's tracer, adopting [ctx] when one arrived
   on the wire ([via] names the hop peer whose span is the parent).
   Must be called with the broker lock held — the lock is what makes
   "one publish = one causal tree" hold for a shared tracer. *)
let traced_locked t ~name ~via ctx f =
  match t.tracer with
  | None -> f ()
  | Some tr -> Trace.with_remote_trace tr ~name ~origin:via ctx f

let publish ?origin ?(via = "") ?(ctx = None) t events =
  with_lock t (fun () ->
      traced_locked t ~name:"net.publish" ~via ctx (fun () ->
          publish_locked ?origin t events))

let connections t = with_lock t (fun () -> Hashtbl.length t.conns)

(* {1 Introspection} *)

(* This node's own status row. Takes the lock (peer snapshot), so
   callers must not already hold it. *)
let status t =
  let now = Transport.now_s () in
  let peers =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun _ cs acc ->
            {
              Transport.ps_name = cs.peer;
              ps_state = (if cs.alive then "up" else "dead");
              ps_queue =
                (Mutex.lock cs.tx_mutex;
                 let n = Queue.length cs.txq in
                 Mutex.unlock cs.tx_mutex;
                 n);
              ps_last_rx_s = now -. cs.last_rx;
            }
            :: acc)
          t.conns [])
  in
  let peers =
    List.sort (fun a b -> compare a.Transport.ps_name b.Transport.ps_name) peers
  in
  {
    Transport.ns_node = t.name;
    ns_role = t.role;
    ns_cursor = (if Broker.wal t.broker = None then -1 else cursor t);
    ns_connections = List.length peers;
    ns_uptime_s = now -. t.started_s;
    ns_peers = peers;
    ns_counters =
      (match t.metrics with Some m -> Metrics.counters m | None -> []);
  }

let set_on_status t f = t.on_status <- Some f

let statuses t =
  match t.on_status with Some f -> f () | None -> [ status t ]

(* {1 Connection protocol} *)

let drop_conn t cs =
  with_lock t (fun () ->
      if Hashtbl.mem t.conns cs.id then begin
        Hashtbl.remove t.conns cs.id;
        t.closed_conns <- t.closed_conns + 1;
        set_conn_gauge t (Hashtbl.length t.conns);
        Hashtbl.iter
          (fun _ (sid, _, _) -> ignore (Broker.unsubscribe t.broker sid))
          cs.subs;
        Hashtbl.reset cs.subs
      end);
  (* Graceful writer stop first: queued frames (a handshake Reject,
     final deliveries) drain before the socket goes down. A peer that
     stopped reading cannot park this join — its writer either fails
     fast (peer closed) or was already killed by the slow-consumer or
     heartbeat policy, and a killed writer's sends fail instantly. *)
  stop_tx cs;
  kill_conn cs;
  Transport.close_conn cs.conn

let handle_subscribe t cs ~token ~subscriber ~body =
  let outcome =
    with_lock t (fun () ->
        if Hashtbl.mem cs.subs token then `Dup (cursor t)
        else
          match Lang.parse_profile (Broker.schema t.broker) body with
          | Error reason -> `Nack reason
          | Ok profile ->
            let sid =
              Broker.subscribe t.broker ~subscriber ~profile
                (enqueue_delivery t cs)
            in
            Hashtbl.replace cs.subs token (sid, profile, body);
            `New (cursor t))
  in
  (* The relay hook runs before the acknowledgement: once the
     subscriber sees its Ack, the whole upstream path has the
     profile. *)
  (match outcome with
  | `New _ ->
    Option.iter
      (fun f -> f ~conn_id:cs.id ~token ~subscriber ~body)
      t.hooks.on_subscribe
  | `Dup _ | `Nack _ -> ());
  match outcome with
  | `New c | `Dup c -> enqueue t cs (Transport.Ack { token; cursor = c; count = 0 })
  | `Nack reason -> enqueue t cs (Transport.Nack { token; reason })

let handle_unsubscribe t cs ~token =
  let removed =
    with_lock t (fun () ->
        match Hashtbl.find_opt cs.subs token with
        | Some (sid, _, body) ->
          ignore (Broker.unsubscribe t.broker sid);
          Hashtbl.remove cs.subs token;
          Some (body, cursor t)
        | None -> None)
  in
  (match removed with
  | Some (body, _) ->
    Option.iter (fun f -> f ~conn_id:cs.id ~token ~body) t.hooks.on_unsubscribe
  | None -> ());
  let c = match removed with Some (_, c) -> c | None -> with_lock t (fun () -> cursor t) in
  enqueue t cs (Transport.Ack { token; cursor = c; count = 0 })

let handle_publish t cs ~token ~origin ~events ~ctx =
  let origin = if origin = "" then cs.peer else origin in
  let t0 = Clock.now_ns () in
  match
    with_lock t (fun () ->
        (* The hop span opens inside the lock so a shared tracer sees
           one causal tree per publish; [fwd_ctx] is captured while it
           is open, so the relay hook's upstream forward parents under
           this hop rather than under the original leaf span. *)
        traced_locked t ~name:"net.rx_publish" ~via:cs.peer ctx (fun () ->
            let first = publish_locked ~skip:cs.id ~origin t events in
            let fwd_ctx =
              match t.tracer with
              | None -> ctx
              | Some tr -> Trace.context tr
            in
            (first, fwd_ctx)))
  with
  | first, fwd_ctx ->
    Option.iter
      (fun h ->
        Metrics.Histogram.observe h
          (Int64.to_float (Int64.sub (Clock.now_ns ()) t0)))
      t.m_rx_apply;
    Option.iter
      (fun f -> f ~conn_id:cs.id ~origin ~ctx:fwd_ctx events)
      t.hooks.on_accept;
    enqueue t cs
      (Transport.Ack
         {
           token;
           cursor = (if Broker.wal t.broker = None then -1 else first);
           count = Array.length events;
         })
  | exception Fault.Crashed _ ->
    (* Simulated process death: the record may or may not be
       durable; the client learns from the dropped connection and
       recovers through reconnect + replay. *)
    ()

(* Catch-up: re-deliver journaled publishes after the client's cursor,
   filtered through this connection's own subscriptions. Never
   link-faulted — replay is the recovery path the faults are recovered
   {e through}. *)
(* Replay bypasses the bounded outbound queue: a catch-up backlog can
   legitimately exceed [max_queue], and the queue bound exists to shed
   peers that stopped reading — a replaying peer is by definition
   reading. The frame set is snapshotted under the broker lock, then
   written directly from the serve thread that accepted the [Replay]
   request, with the kernel socket buffer as flow control: a slow
   reader throttles only its own catch-up, never the broker lock or
   other peers. Interleaving with concurrent live deliveries is safe —
   sends are whole-frame serialized per connection and receivers
   deduplicate by (cursor, idx). *)
let handle_replay t cs ~since ~ctx =
  let frames =
    with_lock t (fun () ->
        (* Replay deliveries carry no context of their own: they are
           catch-up copies of old publishes, and parenting them under
           the requester's replay span would invert causality. The
           service itself still records a hop span adopted from the
           requester. *)
        traced_locked t ~name:"net.replay" ~via:cs.peer ctx (fun () ->
            match Broker.wal t.broker with
            | None ->
              [ Transport.Replay_done { cursor = cursor t; complete = false } ]
            | Some j ->
              let batches, complete = Journal.events_since j ~since in
              let schema = Broker.schema t.broker in
              let acc = ref [] in
              List.iter
                (fun (opi, events) ->
                  Array.iteri
                    (fun idx event ->
                      let matches =
                        Hashtbl.fold
                          (fun _ (_, profile, _) m ->
                            m || Profile.matches schema profile event)
                          cs.subs false
                      in
                      if matches then
                        acc :=
                          Transport.Deliver
                            {
                              cursor = opi;
                              idx;
                              replay = true;
                              origin = "";
                              event;
                              ctx = None;
                            }
                          :: !acc)
                    events)
                batches;
              List.rev
                (Transport.Replay_done { cursor = cursor t; complete } :: !acc)))
  in
  try
    List.iter
      (fun m ->
        if cs.alive then begin
          Transport.send cs.conn m;
          cs.last_tx <- Transport.now_s ()
        end)
      frames
  with Sys_error _ | Unix.Unix_error _ -> kill_conn cs

let serve_conn t cs =
  let schema = Broker.schema t.broker in
  let rec loop () =
    if t.stopping || not cs.alive then ()
    else
      match Transport.recv cs.conn schema with
      | Error `Eof -> ()
      | Error (`Corrupt msg) ->
        (* A torn frame, checksum failure, or hostile length kills the
           connection — the stream is unrecoverable past a framing
           error — but never the server. *)
        Log.warn (fun m -> m "conn %d (%s): corrupt frame: %s" cs.id cs.peer msg);
        enqueue t cs (Transport.Reject { reason = "corrupt frame: " ^ msg })
      | Ok msg -> (
        cs.last_rx <- Transport.now_s ();
        match msg with
        | Transport.Bye -> ()
        | Transport.Ping { token } ->
          enqueue t cs (Transport.Pong { token });
          loop ()
        | Transport.Pong _ -> loop ()
        | Transport.Subscribe { token; subscriber; body } ->
          handle_subscribe t cs ~token ~subscriber ~body;
          loop ()
        | Transport.Unsubscribe { token } ->
          handle_unsubscribe t cs ~token;
          loop ()
        | Transport.Publish { token; origin; events; ctx } ->
          handle_publish t cs ~token ~origin ~events ~ctx;
          if t.stopping then () else loop ()
        | Transport.Replay { since; ctx } ->
          handle_replay t cs ~since ~ctx;
          loop ()
        | Transport.Status_req { token } ->
          enqueue t cs (Transport.Status { token; nodes = statuses t });
          loop ()
        | Transport.Hello _ | Transport.Welcome _ | Transport.Reject _
        | Transport.Ack _ | Transport.Nack _ | Transport.Deliver _
        | Transport.Replay_done _ | Transport.Status _ ->
          enqueue t cs
            (Transport.Nack
               {
                 token = -1;
                 reason = "unexpected " ^ Transport.message_name msg;
               });
          loop ())
  in
  let handshake () =
    match Transport.recv cs.conn schema with
    | Ok (Transport.Hello { version; fingerprint; name }) ->
      if version <> Transport.protocol_version then
        enqueue t cs
          (Transport.Reject
             {
               reason =
                 Printf.sprintf "protocol version %d, expected %d" version
                   Transport.protocol_version;
             })
      else begin
        let own = Codec.schema_fingerprint schema in
        if not (String.equal fingerprint own) then
          enqueue t cs (Transport.Reject { reason = "schema fingerprint mismatch" })
        else begin
          cs.peer <- name;
          cs.last_rx <- Transport.now_s ();
          with_lock t (fun () ->
              enqueue t cs
                (Transport.Welcome
                   {
                     version = Transport.protocol_version;
                     fingerprint = own;
                     cursor = cursor t;
                     name = t.name;
                   }));
          loop ()
        end
      end
    | Ok _ | Error _ ->
      enqueue t cs (Transport.Reject { reason = "expected hello" })
  in
  (try handshake () with Sys_error _ | Unix.Unix_error _ -> ());
  drop_conn t cs

(* {1 Liveness monitor} *)

(* Reap connections that have received nothing for a whole heartbeat
   deadline (half-dead peers — a silently vanished TCP endpoint never
   sends FIN) and ping otherwise-idle ones. Runs on its own thread;
   pings go through the bounded queues, so a monitor tick never
   blocks. *)
let monitor_tick t hb =
  let now = Transport.now_s () in
  let conns =
    with_lock t (fun () -> Hashtbl.fold (fun _ cs acc -> cs :: acc) t.conns [])
  in
  List.iter
    (fun cs ->
      if cs.alive && cs.peer <> "" then begin
        if now -. cs.last_rx > Transport.deadline_of hb then begin
          t.reaped <- t.reaped + 1;
          Option.iter Metrics.Counter.incr t.m_hb_misses;
          Log.warn (fun m ->
              m "conn %d (%s): heartbeat deadline exceeded, reaping" cs.id
                cs.peer);
          kill_conn cs
        end
        else if now -. cs.last_rx > hb.Transport.period_s
                && now -. cs.last_tx > hb.Transport.period_s
        then begin
          t.pings_sent <- t.pings_sent + 1;
          enqueue t cs (Transport.Ping { token = t.pings_sent })
        end
      end)
    conns

let start_monitor t =
  match (t.monitor, t.heartbeat) with
  | Some _, _ | _, None -> ()
  | None, Some hb ->
    t.monitor <-
      Some
        (Thread.create
           (fun () ->
             while not t.stopping do
               Thread.delay t.tick_s;
               if not t.stopping then monitor_tick t hb
             done)
           ())

let stop_monitor t =
  match t.monitor with
  | Some th ->
    t.monitor <- None;
    (try Thread.join th with _ -> ())
  | None -> ()

(* {1 Lifecycle} *)

let ensure_listening t =
  match t.lsock with
  | Some _ -> ()
  | None -> t.lsock <- Some (Transport.listen t.addr)

let accept_one t sock =
  let conn = Transport.accept sock in
  (match t.sndbuf with
  | Some n -> (
    try Unix.setsockopt_int (Transport.conn_fd conn) Unix.SO_SNDBUF n
    with Unix.Unix_error _ | Invalid_argument _ -> ())
  | None -> ());
  let now = Transport.now_s () in
  let cs =
    with_lock t (fun () ->
        let id = t.next_conn in
        t.next_conn <- id + 1;
        let cs =
          {
            id;
            conn;
            peer = "";
            subs = Hashtbl.create 4;
            pending = [];
            delayed = [];
            alive = true;
            txq = Queue.create ();
            tx_mutex = Mutex.create ();
            tx_cond = Condition.create ();
            tx_stop = false;
            tx_thread = None;
            last_rx = now;
            last_tx = now;
          }
        in
        Hashtbl.replace t.conns id cs;
        set_conn_gauge t (Hashtbl.length t.conns);
        cs)
  in
  cs.tx_thread <- Some (Thread.create (fun () -> tx_loop t cs) ());
  let th = Thread.create (fun () -> serve_conn t cs) () in
  t.workers <- th :: t.workers

let close_listener t =
  match t.lsock with
  | Some sock ->
    t.lsock <- None;
    (* Like connections: a thread blocked in accept(2) is only woken
       by shutdown, not by close. *)
    (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (match t.addr with
    | Transport.Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
    | Transport.Tcp _ -> ())
  | None -> ()

let teardown t =
  (* [serve ~connections:n] reaches here without {!stop}: the monitor
     loop watches [stopping], so it must be raised before the join. *)
  t.stopping <- true;
  close_listener t;
  stop_monitor t;
  let conns = with_lock t (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []) in
  (* Shut down (not close): wake each worker out of its blocking read
     with EOF; the worker's own exit path closes the descriptor. *)
  List.iter kill_conn conns;
  List.iter (fun th -> try Thread.join th with _ -> ()) t.workers;
  t.workers <- []

(* Run the accept loop on the calling thread. With [connections = n],
   accept exactly [n] connections and return once all of them have
   disconnected; with [0], loop until {!stop}. *)
let serve ?(connections = 0) t =
  ensure_listening t;
  start_monitor t;
  let sock = Option.get t.lsock in
  let accepted = ref 0 in
  (try
     while
       (not t.stopping) && (connections = 0 || !accepted < connections)
     do
       accept_one t sock;
       incr accepted
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  (* Wait for the accepted connections to finish before tearing down. *)
  List.iter (fun th -> try Thread.join th with _ -> ()) t.workers;
  t.workers <- [];
  teardown t

let start t =
  ensure_listening t;
  start_monitor t;
  let sock = Option.get t.lsock in
  t.acceptor <-
    Some
      (Thread.create
         (fun () ->
           try
             while not t.stopping do
               accept_one t sock
             done
           with Unix.Unix_error _ | Sys_error _ -> ())
         ())

let stop t =
  t.stopping <- true;
  (* Unblock the acceptor first so no new connection races teardown. *)
  close_listener t;
  (match t.acceptor with
  | Some th ->
    t.acceptor <- None;
    (try Thread.join th with _ -> ())
  | None -> ());
  teardown t
