(* A downstream broker node speaking the Codec wire protocol.

   The client owns a full local broker holding every local
   subscription; what it forwards upstream is only the covering-
   minimal root set of its own lattice (the PR-6 aggregation applied
   across the link, per the paper's covering-based propagation): a
   subscription covered by an already-forwarded profile costs zero
   wire traffic, and a newly-broader subscription retires the narrower
   ones it demotes. Delivered events are re-matched by the local
   broker, so absorbed subscriptions still receive exactly their own
   matches.

   Exactly-once local application over at-least-once transport: every
   [Deliver] carries the journal cursor of its publish record; applied
   (cursor, idx) pairs are remembered and duplicates (link faults,
   replay overlap) dropped. [complete_to] tracks the cursor up to
   which this client is known complete — advanced only at clean
   protocol points (fresh connect, replay completion) — and is the
   [since] sent on catch-up, so anything a fault swallowed is
   recovered by replay and deduplicated on arrival.

   Self-healing (docs/ROBUSTNESS.md): a ticker thread owns all
   time-driven behaviour — heartbeat pings on idle links, reaping a
   link silent past the heartbeat deadline, and auto-reconnect with
   capped exponential backoff + seeded jitter (a {!Supervise.policy}
   interpreted over the wall clock). Every request takes a deadline
   and surfaces [Error "timeout"] instead of parking forever.

   Threading rules, load-bearing: the ticker must never block — it
   broadcasts [inbox_cond] first each tick (deadline waiters depend on
   that wake-up) and takes [op_mutex] only by [try_lock]; the receiver
   thread never takes [op_mutex] (link teardown holds it while joining
   the receiver); and any inbox wait that can run {e on} the ticker
   thread polls instead of waiting on the condition it is itself
   responsible for signalling. *)

module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Profile = Genas_profile.Profile
module Lang = Genas_profile.Lang
module Lattice = Genas_profile.Lattice
module Prng = Genas_prng.Prng
module Metrics = Genas_obs.Metrics
module Trace = Genas_obs.Trace
module Clock = Genas_obs.Clock

let log_src = Logs.Src.create "genas.client" ~doc:"GENAS broker client"

module Log = (val Logs.src_log log_src)

type sub = {
  token : int;
  subscriber : string;
  body : string;
  sid : Broker.sub_id option;
      (* [None]: a relay-mirrored forward — upstream subscription
         only, no local handler (the relay's server delivers). *)
}

type inbox_entry = Msg of Transport.message | Closed of string

(* Receive-mailbox bound: a server flooding frames faster than the
   client applies them tears the link down instead of growing memory. *)
let inbox_cap = 65_536

type redial = {
  policy : Supervise.policy;
  max_backoff_s : float;
  rng : Prng.t;
  mutable backoff_s : float;
  mutable next_at : float;
}

type t = {
  schema : Schema.t;
  name : string;
  addr : Transport.addr;
  deadline_s : float;
  heartbeat : Transport.heartbeat option;
  tick_s : float;
  auto_drain : bool;
  tracer : Trace.t option;
  on_deliver :
    (cursor:int ->
    idx:int ->
    origin:string ->
    ctx:Transport.ctx ->
    Event.t ->
    unit)
    option;
  skip_origin : (string -> bool) option;
  local : Broker.t;
  owns_local : bool;
  lat : Lattice.t;
  subs : (int, sub) Hashtbl.t;
  forwarded : (int, unit) Hashtbl.t;
  applied : (int * int, unit) Hashtbl.t;
  outbox : (string * Event.t array * Transport.ctx) Queue.t;
      (* origin-tagged batches awaiting upstream acknowledgement; only
         grows while the upstream link is down (relay buffering) *)
  redial : redial option;
  mutable upstream : string;
      (* the server's node name, learned from Welcome: labels remote
         spans and status rows *)
  mutable complete_to : int;
  mutable next_token : int;
  op_mutex : Mutex.t;
  mutable conn : Transport.conn option;
  mutable rx : Thread.t option;
  mutable rx_paused : bool;
  mutable rx_dead : bool;
      (* receiver exited (EOF, corruption, overflow): the ticker must
         tear the link down even if nothing is draining the inbox *)
  mutable ticker : Thread.t option;
  mutable ticker_tid : int;
  mutable closing : bool;
  inbox : inbox_entry Queue.t;
  inbox_mutex : Mutex.t;
  inbox_cond : Condition.t;
  mutable last_rx : float;
  mutable last_tx : float;
  mutable hb_misses : int;
  mutable reconnects : int;
  mutable applied_total : int;
  mutable duplicates : int;
  mutable wire_subscribes : int;
  mutable wire_unsubscribes : int;
  m_state : Metrics.gauge option;
  m_hb_misses : Metrics.counter option;
  m_reconnects : Metrics.counter option;
  m_rx_apply : Metrics.histogram option;
}

let local t = t.local

let upstream t = t.upstream

let connected t = t.conn <> None

let applied_total t = t.applied_total

let duplicates_dropped t = t.duplicates

let wire_subscribes t = t.wire_subscribes

let wire_unsubscribes t = t.wire_unsubscribes

let heartbeat_misses t = t.hb_misses

let reconnects t = t.reconnects

let forwarded_tokens t =
  Hashtbl.fold (fun tok () acc -> tok :: acc) t.forwarded []
  |> List.sort Int.compare

let with_op t f =
  Mutex.lock t.op_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.op_mutex) f

let outbox_depth t = with_op t (fun () -> Queue.length t.outbox)

let set_state t v = Option.iter (fun g -> Metrics.Gauge.set g v) t.m_state

(* {1 Inbox} *)

let inbox_push t entry =
  Mutex.lock t.inbox_mutex;
  Queue.push entry t.inbox;
  Condition.broadcast t.inbox_cond;
  Mutex.unlock t.inbox_mutex

let inbox_pop_opt t =
  Mutex.lock t.inbox_mutex;
  let e = Queue.take_opt t.inbox in
  Mutex.unlock t.inbox_mutex;
  e

(* Pop with a deadline. Normal threads park on [inbox_cond] — woken by
   every receiver push and by the ticker each tick, so the deadline is
   checked at tick granularity without busy-waiting. The ticker thread
   itself cannot rely on those broadcasts (it is their source), so it
   polls. [None] means the deadline passed (or the client is
   closing). *)
let inbox_pop_deadline t ~deadline =
  let on_ticker = Thread.id (Thread.self ()) = t.ticker_tid in
  Mutex.lock t.inbox_mutex;
  let rec wait () =
    if not (Queue.is_empty t.inbox) then Queue.take_opt t.inbox
    else if t.closing || Transport.now_s () >= deadline then None
    else if on_ticker then begin
      Mutex.unlock t.inbox_mutex;
      Thread.delay (Float.min 0.005 t.tick_s);
      Mutex.lock t.inbox_mutex;
      wait ()
    end
    else begin
      Condition.wait t.inbox_cond t.inbox_mutex;
      wait ()
    end
  in
  let r = wait () in
  Mutex.unlock t.inbox_mutex;
  r

let inbox_clear t =
  Mutex.lock t.inbox_mutex;
  Queue.clear t.inbox;
  Mutex.unlock t.inbox_mutex

(* {1 Receiver thread} *)

(* Liveness frames are handled here — [Ping] answered in place, [Pong]
   absorbed — so the inbox carries only protocol traffic. [rx_paused]
   is a chaos hook: a paused receiver stops reading between frames,
   filling the kernel buffers until the server's bounded queue trips
   its slow-consumer policy. *)
let spawn_rx t conn =
  t.rx_dead <- false;
  t.rx <-
    Some
      (Thread.create
         (fun () ->
           let rec loop () =
             while t.rx_paused && not t.closing do
               Thread.delay 0.005
             done;
             match Transport.recv conn t.schema with
             | Ok msg -> (
               t.last_rx <- Transport.now_s ();
               match msg with
               | Transport.Ping { token } ->
                 (try Transport.send conn (Transport.Pong { token })
                  with Sys_error _ | Unix.Unix_error _ -> ());
                 loop ()
               | Transport.Pong _ -> loop ()
               | Transport.Bye -> inbox_push t (Closed "server closed")
               | msg ->
                 let overflowed =
                   Mutex.lock t.inbox_mutex;
                   let ov = Queue.length t.inbox >= inbox_cap in
                   Queue.push
                     (if ov then Closed "inbox overflow" else Msg msg)
                     t.inbox;
                   Condition.broadcast t.inbox_cond;
                   Mutex.unlock t.inbox_mutex;
                   ov
                 in
                 if not overflowed then loop ())
             | Error `Eof -> inbox_push t (Closed "connection closed")
             | Error (`Corrupt m) ->
               inbox_push t (Closed ("corrupt frame: " ^ m))
           in
           loop ();
           t.rx_dead <- true)
         ())

let join_rx t =
  match t.rx with
  | Some th ->
    t.rx <- None;
    (try Thread.join th with _ -> ())
  | None -> ()

(* Tear the link down eagerly: shut the socket (waking a receiver
   parked in read(2)), join the receiver, close the descriptor, and
   arm the redial schedule. Assumes [op_mutex]. A send failure, a
   heartbeat reap, and a [Closed] inbox entry all land here — the
   receiver must never be left parked on a dead socket. *)
let drop_link_locked t =
  match t.conn with
  | None -> ()
  | Some conn ->
    t.conn <- None;
    t.rx_paused <- false;
    Transport.shutdown_conn conn;
    join_rx t;
    Transport.close_conn conn;
    t.rx_dead <- false;
    set_state t 0.0;
    (match t.redial with
    | Some r ->
      r.backoff_s <- Float.max 0.01 (r.policy.Supervise.backoff_ns /. 1e9);
      r.next_at <- Transport.now_s ()
    | None -> ())

let drop_link t = with_op t (fun () -> drop_link_locked t)

(* {1 Delivery application} *)

let apply_deliver t ~cursor ~idx ~origin ~ctx event =
  if
    origin <> ""
    && (match t.skip_origin with Some f -> f origin | None -> false)
  then false
  else begin
    let duplicate = cursor >= 0 && Hashtbl.mem t.applied (cursor, idx) in
    if duplicate then begin
      t.duplicates <- t.duplicates + 1;
      false
    end
    else begin
      if cursor >= 0 then Hashtbl.replace t.applied (cursor, idx) ();
      (* Local re-matching delivers to exactly the local subscriptions
         the event satisfies — including ones absorbed below a
         forwarded covering profile. *)
      let t0 = Clock.now_ns () in
      let deliver () =
        match t.on_deliver with
        | Some f -> f ~cursor ~idx ~origin ~ctx event
        | None -> ignore (Broker.publish t.local event)
      in
      (match t.tracer with
      | None -> deliver ()
      | Some tr ->
        (* The apply span adopts the Deliver frame's context, so this
           hop parents under the upstream's publish span. *)
        Trace.with_remote_trace tr ~name:"net.apply" ~origin:t.upstream ctx
          deliver);
      Option.iter
        (fun h ->
          Metrics.Histogram.observe h
            (Int64.to_float (Int64.sub (Clock.now_ns ()) t0)))
        t.m_rx_apply;
      t.applied_total <- t.applied_total + 1;
      true
    end
  end

let handle_async t = function
  | Transport.Deliver { cursor; idx; origin; event; ctx; replay = _ } ->
    ignore (apply_deliver t ~cursor ~idx ~origin ~ctx event)
  | _ -> ()

(* Drain everything already queued without blocking; returns how many
   deliveries were applied. Assumes [op_mutex]. *)
let drain_locked t =
  let applied = ref 0 in
  let rec loop () =
    match inbox_pop_opt t with
    | None -> ()
    | Some (Closed _) -> drop_link_locked t
    | Some
        (Msg (Transport.Deliver { cursor; idx; origin; event; ctx; replay = _ }))
      ->
      if apply_deliver t ~cursor ~idx ~origin ~ctx event then incr applied;
      loop ()
    | Some (Msg _) -> loop ()
  in
  loop ();
  !applied

let drain t = with_op t (fun () -> drain_locked t)

(* Event-driven wait: park on the inbox condition (signalled by every
   receiver push, broadcast by the ticker each tick) until [n]
   deliveries were applied by this call or [timeout] elapses. *)
let await_deliveries ?(timeout = 5.0) t n =
  let deadline = Transport.now_s () +. timeout in
  let applied = ref (drain t) in
  while
    !applied < n && (not t.closing) && Transport.now_s () < deadline
  do
    Mutex.lock t.inbox_mutex;
    if Queue.is_empty t.inbox && not t.closing then
      Condition.wait t.inbox_cond t.inbox_mutex;
    Mutex.unlock t.inbox_mutex;
    applied := !applied + drain t
  done;
  !applied

(* {1 Requests} *)

let send_locked t msg =
  match t.conn with
  | None -> Error "not connected"
  | Some conn -> (
    try
      Transport.send conn msg;
      t.last_tx <- Transport.now_s ();
      Ok ()
    with Sys_error _ | Unix.Unix_error _ ->
      drop_link_locked t;
      Error "connection lost")

(* Wait for the acknowledgement matching [token], applying asynchronous
   deliveries encountered on the way. On deadline the request fails
   with [Error "timeout"] but the link survives — a late Ack is simply
   dropped later as an unmatched token. *)
let await_ack_locked t token =
  let deadline = Transport.now_s () +. t.deadline_s in
  let rec loop () =
    match inbox_pop_deadline t ~deadline with
    | None -> Error "timeout"
    | Some (Closed reason) ->
      drop_link_locked t;
      Error reason
    | Some (Msg (Transport.Ack { token = tk; cursor; count })) when tk = token
      ->
      Ok (cursor, count)
    | Some (Msg (Transport.Nack { token = tk; reason })) when tk = token ->
      Error reason
    | Some (Msg (Transport.Reject { reason })) ->
      drop_link_locked t;
      Error reason
    | Some (Msg m) ->
      handle_async t m;
      loop ()
  in
  loop ()

let request_locked t msg ~token =
  match send_locked t msg with
  | Error e -> Error e
  | Ok () -> await_ack_locked t token

(* {1 Covering-gated forwarding} *)

(* Forward exactly the covering-minimal roots of the local lattice.
   New roots subscribe before retired ones unsubscribe, so upstream
   coverage never has a window. Disconnected, only the bookkeeping
   updates — reconnection re-sends the whole forwarded set. *)
let sync_forwarded_locked t =
  let target = Hashtbl.create 8 in
  List.iter
    (fun (tok, _) -> Hashtbl.replace target tok ())
    (Lattice.minimal_cover t.lat);
  let to_add =
    Hashtbl.fold
      (fun tok () acc -> if Hashtbl.mem t.forwarded tok then acc else tok :: acc)
      target []
  and to_drop =
    Hashtbl.fold
      (fun tok () acc -> if Hashtbl.mem target tok then acc else tok :: acc)
      t.forwarded []
  in
  let err = ref None in
  let keep e = if !err = None then err := Some e in
  if t.conn <> None then begin
    List.iter
      (fun tok ->
        match Hashtbl.find_opt t.subs tok with
        | None -> ()
        | Some sub -> (
          t.wire_subscribes <- t.wire_subscribes + 1;
          match
            request_locked t
              (Transport.Subscribe
                 { token = tok; subscriber = sub.subscriber; body = sub.body })
              ~token:tok
          with
          | Ok _ -> ()
          | Error e -> keep e))
      (List.sort Int.compare to_add);
    List.iter
      (fun tok ->
        t.wire_unsubscribes <- t.wire_unsubscribes + 1;
        match
          request_locked t (Transport.Unsubscribe { token = tok }) ~token:tok
        with
        | Ok _ -> ()
        | Error e -> keep e)
      (List.sort Int.compare to_drop)
  end;
  Hashtbl.reset t.forwarded;
  Hashtbl.iter (fun tok () -> Hashtbl.replace t.forwarded tok ()) target;
  match !err with None -> Ok () | Some e -> Error e

(* {1 Upstream publish buffering (relays)} *)

let flush_outbox_locked t =
  let rec go () =
    if t.conn <> None then
      match Queue.peek_opt t.outbox with
      | None -> ()
      | Some (origin, events, ctx) -> (
        let token = t.next_token in
        t.next_token <- token + 1;
        match
          request_locked t
            (Transport.Publish { token; origin; events; ctx })
            ~token
        with
        | Ok (cursor, count) ->
          (* The upstream journal now carries these; mark them applied
             so a later replay never re-offers what we sent up. *)
          if cursor >= 0 then
            for i = 0 to count - 1 do
              Hashtbl.replace t.applied (cursor + i, 0) ()
            done;
          ignore (Queue.pop t.outbox);
          go ()
        | Error _ -> ()
        (* retried on the next tick / after reconnect *))
  in
  go ()

let forward_up ?(ctx = None) t ~origin events =
  if Array.length events > 0 then
    with_op t (fun () ->
        Queue.push (origin, events, ctx) t.outbox;
        flush_outbox_locked t)

(* {1 Lifecycle} *)

(* Handshake under a kernel receive deadline: a server that accepted
   the connection but never answers cannot park us. The socket is
   abandoned on timeout, so the mid-stream desync caveat of
   [set_recv_timeout] never applies. *)
let handshake t conn =
  let fingerprint = Codec.schema_fingerprint t.schema in
  Transport.set_recv_timeout conn (Some t.deadline_s);
  let started = Transport.now_s () in
  let reply =
    match
      Transport.send conn
        (Transport.Hello
           { version = Transport.protocol_version; fingerprint; name = t.name })
    with
    | () -> Transport.recv conn t.schema
    | exception (Sys_error _ | Unix.Unix_error _) -> Error `Eof
  in
  Transport.set_recv_timeout conn None;
  match reply with
  | Ok (Transport.Welcome { version = _; fingerprint = fp; cursor; name }) ->
    if String.equal fp fingerprint then Ok (cursor, name)
    else Error "server schema fingerprint mismatch"
  | Ok (Transport.Reject { reason }) -> Error reason
  | Ok m -> Error ("unexpected " ^ Transport.message_name m)
  | Error `Eof ->
    if Transport.now_s () -. started >= t.deadline_s *. 0.9 then Error "timeout"
    else Error "connection closed during handshake"
  | Error (`Corrupt m) -> Error ("corrupt frame during handshake: " ^ m)

(* Dial + handshake + receiver spawn. Assumes [op_mutex] and no
   current link. Returns the server's cursor. *)
let dial_locked t =
  match Transport.dial t.addr with
  | exception (Unix.Unix_error _ as e) ->
    Error
      (Printf.sprintf "dial %s: %s"
         (Transport.addr_to_string t.addr)
         (Printexc.to_string e))
  | conn -> (
    match handshake t conn with
    | Error e ->
      Transport.close_conn conn;
      Error e
    | Ok (cursor, upstream) ->
      let now = Transport.now_s () in
      t.last_rx <- now;
      t.last_tx <- now;
      t.conn <- Some conn;
      t.upstream <- upstream;
      spawn_rx t conn;
      set_state t 1.0;
      Ok cursor)

(* Redial after a disconnect, keeping every cursor and subscription:
   re-send the forwarded root set. Stale inbox remains (a [Closed]
   from the old link, undrained deliveries) are processed first so
   they cannot be mistaken for the new link's traffic. *)
let reconnect_locked t =
  ignore (drain_locked t);
  inbox_clear t;
  match dial_locked t with
  | Error _ as e -> e
  | Ok _cursor ->
    let err = ref None in
    Hashtbl.iter
      (fun tok () ->
        match Hashtbl.find_opt t.subs tok with
        | None -> ()
        | Some sub -> (
          t.wire_subscribes <- t.wire_subscribes + 1;
          match
            request_locked t
              (Transport.Subscribe
                 { token = tok; subscriber = sub.subscriber; body = sub.body })
              ~token:tok
          with
          | Ok _ -> ()
          | Error e -> if !err = None then err := Some e))
      t.forwarded;
    (match !err with None -> Ok () | Some e -> Error e)

(* Catch-up replay from the last known-complete cursor. Assumes
   [op_mutex]. *)
let replay_locked t =
  let req_ctx =
    match t.tracer with None -> None | Some tr -> Trace.context tr
  in
  match send_locked t (Transport.Replay { since = t.complete_to; ctx = req_ctx })
  with
  | Error e -> Error e
  | Ok () ->
    let deadline = Transport.now_s () +. t.deadline_s in
    let applied = ref 0 in
    let rec loop () =
      match inbox_pop_deadline t ~deadline with
      | None -> Error "timeout"
      | Some (Closed reason) ->
        drop_link_locked t;
        Error reason
      | Some
          (Msg
             (Transport.Deliver { cursor; idx; origin; event; ctx; replay = _ }))
        ->
        if apply_deliver t ~cursor ~idx ~origin ~ctx event then incr applied;
        loop ()
      | Some (Msg (Transport.Replay_done { cursor; complete })) ->
        t.complete_to <- cursor - 1;
        Ok (!applied, complete)
      | Some (Msg m) ->
        handle_async t m;
        loop ()
    in
    loop ()

(* {1 Ticker} *)

(* One thread owns every clock-driven duty. Each tick it (1) wakes
   deadline waiters — unconditionally and before anything that could
   block, (2) under try-lock only: heartbeats, liveness reaping,
   scheduled redial + replay, outbox flush, optional auto-drain. *)
let tick_locked t =
  let now = Transport.now_s () in
  (* A dead receiver means a dead link, whether or not anything is
     draining the inbox: tear it down so the redial schedule arms.
     Queued deliveries stay queued for the caller; the stale [Closed]
     entry is consumed harmlessly (the link is already down). *)
  if t.rx_dead && t.conn <> None then drop_link_locked t;
  (match (t.conn, t.heartbeat) with
  | Some conn, Some hb ->
    if now -. t.last_rx > Transport.deadline_of hb then begin
      t.hb_misses <- t.hb_misses + 1;
      Option.iter Metrics.Counter.incr t.m_hb_misses;
      Log.warn (fun m ->
          m "%s: upstream silent for %.1fs, dropping link" t.name
            (now -. t.last_rx));
      drop_link_locked t
    end
    else if
      now -. t.last_rx > hb.Transport.period_s
      && now -. t.last_tx > hb.Transport.period_s
    then (
      try
        Transport.send conn (Transport.Ping { token = 0 });
        t.last_tx <- now
      with Sys_error _ | Unix.Unix_error _ -> drop_link_locked t)
  | _ -> ());
  (match (t.conn, t.redial) with
  | None, Some r when now >= r.next_at -> (
    match reconnect_locked t with
    | Ok () ->
      t.reconnects <- t.reconnects + 1;
      Option.iter Metrics.Counter.incr t.m_reconnects;
      Log.info (fun m -> m "%s: reconnected to %s" t.name
                   (Transport.addr_to_string t.addr));
      r.backoff_s <- Float.max 0.01 (r.policy.Supervise.backoff_ns /. 1e9);
      ignore (replay_locked t)
    | Error _ ->
      (* Capped exponential backoff with seeded jitter: the
         {!Supervise.policy} schedule, interpreted over the wall
         clock. *)
      let u = Prng.float r.rng ~bound:1.0 in
      let scale = 1.0 -. (r.policy.Supervise.jitter *. u) in
      r.next_at <- now +. (r.backoff_s *. scale);
      r.backoff_s <-
        Float.min r.max_backoff_s
          (r.backoff_s *. Float.max 1.0 r.policy.Supervise.multiplier))
  | _ -> ());
  if t.conn <> None then flush_outbox_locked t;
  if t.auto_drain then ignore (drain_locked t)

let spawn_ticker t =
  let th =
    Thread.create
      (fun () ->
        while not t.closing do
          Thread.delay t.tick_s;
          Mutex.lock t.inbox_mutex;
          Condition.broadcast t.inbox_cond;
          Mutex.unlock t.inbox_mutex;
          if (not t.closing) && Mutex.try_lock t.op_mutex then begin
            (try tick_locked t with _ -> ());
            Mutex.unlock t.op_mutex
          end
        done)
      ()
  in
  t.ticker_tid <- Thread.id th;
  t.ticker <- Some th

let connect ?(name = "client") ?(deadline_s = 30.0)
    ?(heartbeat = Some Transport.default_heartbeat) ?reconnect
    ?(max_backoff_s = 30.0) ?metrics ?tracer ?(tick_s = 0.02)
    ?(auto_drain = false) ?on_deliver ?skip_origin ?local schema addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if not (deadline_s > 0.0) then
    invalid_arg "Broker_client.connect: deadline_s must be positive";
  let labels = [ ("node", name); ("role", "client") ] in
  let m_state =
    Option.map
      (fun m ->
        Metrics.gauge m ~labels ~help:"1 = link up, 0 = link down"
          "genas_net_peer_state")
      metrics
  and m_hb_misses =
    Option.map
      (fun m ->
        Metrics.counter m ~labels
          ~help:"Links dropped after missing the heartbeat deadline"
          "genas_net_heartbeat_misses_total")
      metrics
  and m_reconnects =
    Option.map
      (fun m ->
        Metrics.counter m ~labels ~help:"Successful automatic reconnects"
          "genas_net_reconnects_total")
      metrics
  and m_rx_apply =
    Option.map
      (fun m ->
        Metrics.histogram m ~labels
          ~help:"Time applying one received delivery, ns"
          "genas_net_rx_apply_duration_ns")
      metrics
  in
  let redial =
    Option.map
      (fun policy ->
        {
          policy;
          max_backoff_s;
          rng = Prng.create ~seed:policy.Supervise.jitter_seed;
          backoff_s = Float.max 0.01 (policy.Supervise.backoff_ns /. 1e9);
          next_at = 0.0;
        })
      reconnect
  in
  let owns_local, local =
    match local with Some b -> (false, b) | None -> (true, Broker.create schema)
  in
  let t =
    {
      schema;
      name;
      addr;
      deadline_s;
      heartbeat;
      tick_s;
      auto_drain;
      tracer;
      on_deliver;
      skip_origin;
      local;
      owns_local;
      lat = Lattice.create schema;
      subs = Hashtbl.create 8;
      forwarded = Hashtbl.create 8;
      applied = Hashtbl.create 64;
      outbox = Queue.create ();
      redial;
      upstream = "";
      complete_to = -1;
      next_token = 1;
      op_mutex = Mutex.create ();
      conn = None;
      rx = None;
      rx_paused = false;
      rx_dead = false;
      ticker = None;
      ticker_tid = -1;
      closing = false;
      inbox = Queue.create ();
      inbox_mutex = Mutex.create ();
      inbox_cond = Condition.create ();
      last_rx = 0.0;
      last_tx = 0.0;
      hb_misses = 0;
      reconnects = 0;
      applied_total = 0;
      duplicates = 0;
      wire_subscribes = 0;
      wire_unsubscribes = 0;
      m_state;
      m_hb_misses;
      m_reconnects;
      m_rx_apply;
    }
  in
  match with_op t (fun () -> dial_locked t) with
  | Error e ->
    if owns_local then Broker.close t.local;
    Error e
  | Ok cursor ->
    (* Records before this point predate the client: it is complete up
       to them by definition. *)
    t.complete_to <- cursor - 1;
    spawn_ticker t;
    Ok t

let reconnect t =
  with_op t (fun () ->
      drop_link_locked t;
      reconnect_locked t)

let disconnect_locked t =
  (match t.conn with
  | Some conn -> (
    try Transport.send conn Transport.Bye
    with Sys_error _ | Unix.Unix_error _ -> ())
  | None -> ());
  drop_link_locked t

let close t =
  t.closing <- true;
  Mutex.lock t.inbox_mutex;
  Condition.broadcast t.inbox_cond;
  Mutex.unlock t.inbox_mutex;
  (match t.ticker with
  | Some th ->
    t.ticker <- None;
    (try Thread.join th with _ -> ())
  | None -> ());
  with_op t (fun () -> disconnect_locked t);
  inbox_clear t;
  if t.owns_local then Broker.close t.local

(* Chaos hooks: a paused receiver models a stalled consumer (kernel
   buffers fill; the server's bounded queue eventually trips). *)
let pause_rx t = t.rx_paused <- true

let resume_rx t = t.rx_paused <- false

(* {1 Operations} *)

let subscribe t ?subscriber body handler =
  with_op t (fun () ->
      let subscriber = match subscriber with Some s -> s | None -> t.name in
      match Lang.parse_profile t.schema body with
      | Error e -> Error e
      | Ok profile -> (
        let token = t.next_token in
        t.next_token <- token + 1;
        let sid = Broker.subscribe t.local ~subscriber ~profile handler in
        ignore (Lattice.add t.lat ~id:token profile);
        Hashtbl.replace t.subs token { token; subscriber; body; sid = Some sid };
        match sync_forwarded_locked t with
        | Ok () -> Ok token
        | Error e -> Error e))

let unsubscribe t token =
  with_op t (fun () ->
      match Hashtbl.find_opt t.subs token with
      | None -> Error (Printf.sprintf "unknown subscription token %d" token)
      | Some sub ->
        Option.iter (fun sid -> ignore (Broker.unsubscribe t.local sid)) sub.sid;
        Hashtbl.remove t.subs token;
        ignore (Lattice.remove t.lat token);
        sync_forwarded_locked t)

(* Upstream-only subscription (no local handler): the relay's mirror
   of a downstream profile. Wire errors are swallowed — the forwarded
   set is re-synced wholesale on reconnect. *)
let forward_profile t ?subscriber body =
  with_op t (fun () ->
      let subscriber = match subscriber with Some s -> s | None -> t.name in
      match Lang.parse_profile t.schema body with
      | Error e -> Error e
      | Ok profile ->
        let token = t.next_token in
        t.next_token <- token + 1;
        ignore (Lattice.add t.lat ~id:token profile);
        Hashtbl.replace t.subs token { token; subscriber; body; sid = None };
        ignore (sync_forwarded_locked t);
        Ok token)

let retire_profile t token = ignore (unsubscribe t token)

let publish t event =
  with_op t (fun () ->
      let run () =
        (* Local delivery first — the origin node matches its own
           subscriptions directly, as {!Router.publish} does. *)
        let n = Broker.publish t.local event in
        let token = t.next_token in
        t.next_token <- token + 1;
        (* Captured while the publish span is open: the upstream hop
           parents under this node's publish. *)
        let ctx =
          match t.tracer with None -> None | Some tr -> Trace.context tr
        in
        match
          request_locked t
            (Transport.Publish
               { token; origin = t.name; events = [| event |]; ctx })
            ~token
        with
        | Error e -> Error e
        | Ok (cursor, count) ->
          (* Mark our own events applied: the server never echoes them
             back, but a later replay would — and the local broker
             already delivered them. *)
          if cursor >= 0 then
            for i = 0 to count - 1 do
              Hashtbl.replace t.applied (cursor + i, 0) ()
            done;
          Ok n
      in
      match t.tracer with
      | None -> run ()
      | Some tr -> Trace.with_trace tr ~name:"net.publish" run)

(* {1 Mesh introspection} *)

(* One Status_req/Status round trip. Deliveries and unmatched acks
   encountered while waiting are applied/absorbed as usual. *)
let status_request t =
  with_op t (fun () ->
      let token = t.next_token in
      t.next_token <- token + 1;
      match send_locked t (Transport.Status_req { token }) with
      | Error e -> Error e
      | Ok () ->
        let deadline = Transport.now_s () +. t.deadline_s in
        let rec loop () =
          match inbox_pop_deadline t ~deadline with
          | None -> Error "timeout"
          | Some (Closed reason) ->
            drop_link_locked t;
            Error reason
          | Some (Msg (Transport.Status { token = tk; nodes })) when tk = token
            ->
            Ok nodes
          | Some (Msg (Transport.Reject { reason })) ->
            drop_link_locked t;
            Error reason
          | Some (Msg m) ->
            handle_async t m;
            loop ()
        in
        loop ())

(* Catch-up replay from the last known-complete cursor. Returns
   [(applied, complete)]: newly applied events, and whether the server
   still retained the whole range ([false] = a snapshot discarded part
   of it; see docs/NETWORKING.md on resync). *)
let replay t = with_op t (fun () -> replay_locked t)
