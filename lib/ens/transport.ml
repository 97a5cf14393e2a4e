(* Wire transport for networked brokers: Codec frames over stream
   sockets. Every message is one seeded-FNV-checksummed, length-
   prefixed frame whose payload starts with a u8 tag; events travel in
   the same binary encoding the journal uses, so a socket peer and a
   WAL replay decode through identical code paths. *)

module Event = Genas_model.Event
module Schema = Genas_model.Schema

(* v3: Publish/Deliver/Replay carry an optional trace context, Welcome
   carries the server's node name, and the Status_req/Status pair was
   added. Old peers are rejected at the handshake version check. *)
let protocol_version = 3

(* Wall-independent seconds for deadlines and heartbeat bookkeeping:
   reads {!Genas_obs.Clock}, so tests can install a fake source and
   drive liveness deadlines deterministically. *)
let now_s () = Int64.to_float (Genas_obs.Clock.now_ns ()) /. 1e9

(* {1 Liveness} *)

type heartbeat = { period_s : float; misses : int }

let default_heartbeat = { period_s = 5.0; misses = 3 }

let heartbeat ?(period_s = default_heartbeat.period_s)
    ?(misses = default_heartbeat.misses) () =
  if not (period_s > 0.0) then
    invalid_arg "Transport.heartbeat: period must be positive";
  if misses < 1 then invalid_arg "Transport.heartbeat: misses must be >= 1";
  { period_s; misses }

let deadline_of { period_s; misses } = period_s *. float_of_int misses

(* {1 Addresses} *)

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected unix:PATH or tcp:HOST:PORT" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" ->
      if rest = "" then Error "unix address: empty path"
      else Ok (Unix_sock rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "tcp address %S: expected HOST:PORT" rest)
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "tcp address %S: bad host or port" rest)))
    | _ -> Error (Printf.sprintf "address scheme %S: expected unix or tcp" scheme))

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
        | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    Unix.ADDR_INET (ip, port)

(* {1 Messages} *)

(* A wire trace context: (trace id, parent span id) of the sender's
   active trace, adopted by the receiver so hop spans parent across
   the process boundary. *)
type ctx = (int * int) option

type peer_status = {
  ps_name : string;
  ps_state : string;
  ps_queue : int;
  ps_last_rx_s : float;
}

type node_status = {
  ns_node : string;
  ns_role : string;
  ns_cursor : int;
  ns_connections : int;
  ns_uptime_s : float;
  ns_peers : peer_status list;
  ns_counters : (string * int) list;
}

type message =
  | Hello of { version : int; fingerprint : string; name : string }
  | Welcome of {
      version : int;
      fingerprint : string;
      cursor : int;
      name : string;
    }
  | Reject of { reason : string }
  | Subscribe of { token : int; subscriber : string; body : string }
  | Unsubscribe of { token : int }
  | Publish of {
      token : int;
      origin : string;
      events : Event.t array;
      ctx : ctx;
    }
  | Ack of { token : int; cursor : int; count : int }
  | Nack of { token : int; reason : string }
  | Deliver of {
      cursor : int;
      idx : int;
      replay : bool;
      origin : string;
      event : Event.t;
      ctx : ctx;
    }
  | Replay of { since : int; ctx : ctx }
  | Replay_done of { cursor : int; complete : bool }
  | Bye
  | Ping of { token : int }
  | Pong of { token : int }
  | Status_req of { token : int }
  | Status of { token : int; nodes : node_status list }

let w_ctx b =
  Codec.w_option
    (fun b (tid, sid) ->
      Codec.w_int b tid;
      Codec.w_int b sid)
    b

let r_ctx r =
  Codec.r_option
    (fun r ->
      let tid = Codec.r_int r in
      let sid = Codec.r_int r in
      (tid, sid))
    r

let w_peer_status b p =
  Codec.w_string b p.ps_name;
  Codec.w_string b p.ps_state;
  Codec.w_int b p.ps_queue;
  Codec.w_float b p.ps_last_rx_s

let r_peer_status r =
  let ps_name = Codec.r_string r in
  let ps_state = Codec.r_string r in
  let ps_queue = Codec.r_int r in
  let ps_last_rx_s = Codec.r_float r in
  { ps_name; ps_state; ps_queue; ps_last_rx_s }

let w_node_status b n =
  Codec.w_string b n.ns_node;
  Codec.w_string b n.ns_role;
  Codec.w_int b n.ns_cursor;
  Codec.w_int b n.ns_connections;
  Codec.w_float b n.ns_uptime_s;
  Codec.w_list w_peer_status b n.ns_peers;
  Codec.w_list
    (fun b (k, v) ->
      Codec.w_string b k;
      Codec.w_int b v)
    b n.ns_counters

let r_node_status r =
  let ns_node = Codec.r_string r in
  let ns_role = Codec.r_string r in
  let ns_cursor = Codec.r_int r in
  let ns_connections = Codec.r_int r in
  let ns_uptime_s = Codec.r_float r in
  let ns_peers = Codec.r_list r_peer_status r in
  let ns_counters =
    Codec.r_list
      (fun r ->
        let k = Codec.r_string r in
        let v = Codec.r_int r in
        (k, v))
      r
  in
  { ns_node; ns_role; ns_cursor; ns_connections; ns_uptime_s; ns_peers;
    ns_counters }

let encode_message msg =
  let b = Buffer.create 64 in
  (match msg with
  | Hello { version; fingerprint; name } ->
    Codec.w_u8 b 0;
    Codec.w_int b version;
    Codec.w_string b fingerprint;
    Codec.w_string b name
  | Welcome { version; fingerprint; cursor; name } ->
    Codec.w_u8 b 1;
    Codec.w_int b version;
    Codec.w_string b fingerprint;
    Codec.w_int b cursor;
    Codec.w_string b name
  | Reject { reason } ->
    Codec.w_u8 b 2;
    Codec.w_string b reason
  | Subscribe { token; subscriber; body } ->
    Codec.w_u8 b 3;
    Codec.w_int b token;
    Codec.w_string b subscriber;
    Codec.w_string b body
  | Unsubscribe { token } ->
    Codec.w_u8 b 4;
    Codec.w_int b token
  | Publish { token; origin; events; ctx } ->
    Codec.w_u8 b 5;
    Codec.w_int b token;
    Codec.w_string b origin;
    Codec.w_array Codec.w_event b events;
    w_ctx b ctx
  | Ack { token; cursor; count } ->
    Codec.w_u8 b 6;
    Codec.w_int b token;
    Codec.w_int b cursor;
    Codec.w_int b count
  | Nack { token; reason } ->
    Codec.w_u8 b 7;
    Codec.w_int b token;
    Codec.w_string b reason
  | Deliver { cursor; idx; replay; origin; event; ctx } ->
    Codec.w_u8 b 8;
    Codec.w_int b cursor;
    Codec.w_int b idx;
    Codec.w_bool b replay;
    Codec.w_string b origin;
    Codec.w_event b event;
    w_ctx b ctx
  | Replay { since; ctx } ->
    Codec.w_u8 b 9;
    Codec.w_int b since;
    w_ctx b ctx
  | Replay_done { cursor; complete } ->
    Codec.w_u8 b 10;
    Codec.w_int b cursor;
    Codec.w_bool b complete
  | Bye -> Codec.w_u8 b 11
  | Ping { token } ->
    Codec.w_u8 b 12;
    Codec.w_int b token
  | Pong { token } ->
    Codec.w_u8 b 13;
    Codec.w_int b token
  | Status_req { token } ->
    Codec.w_u8 b 14;
    Codec.w_int b token
  | Status { token; nodes } ->
    Codec.w_u8 b 15;
    Codec.w_int b token;
    Codec.w_list w_node_status b nodes);
  Buffer.contents b

let decode_message schema payload =
  let r = Codec.reader payload in
  let msg =
    match Codec.r_u8 r with
    | 0 ->
      let version = Codec.r_int r in
      let fingerprint = Codec.r_string r in
      let name = Codec.r_string r in
      Hello { version; fingerprint; name }
    | 1 ->
      let version = Codec.r_int r in
      let fingerprint = Codec.r_string r in
      let cursor = Codec.r_int r in
      let name = Codec.r_string r in
      Welcome { version; fingerprint; cursor; name }
    | 2 -> Reject { reason = Codec.r_string r }
    | 3 ->
      let token = Codec.r_int r in
      let subscriber = Codec.r_string r in
      let body = Codec.r_string r in
      Subscribe { token; subscriber; body }
    | 4 -> Unsubscribe { token = Codec.r_int r }
    | 5 ->
      let token = Codec.r_int r in
      let origin = Codec.r_string r in
      let events = Codec.r_array (Codec.r_event schema) r in
      let ctx = r_ctx r in
      Publish { token; origin; events; ctx }
    | 6 ->
      let token = Codec.r_int r in
      let cursor = Codec.r_int r in
      let count = Codec.r_int r in
      Ack { token; cursor; count }
    | 7 ->
      let token = Codec.r_int r in
      let reason = Codec.r_string r in
      Nack { token; reason }
    | 8 ->
      let cursor = Codec.r_int r in
      let idx = Codec.r_int r in
      let replay = Codec.r_bool r in
      let origin = Codec.r_string r in
      let event = Codec.r_event schema r in
      let ctx = r_ctx r in
      Deliver { cursor; idx; replay; origin; event; ctx }
    | 9 ->
      let since = Codec.r_int r in
      let ctx = r_ctx r in
      Replay { since; ctx }
    | 10 ->
      let cursor = Codec.r_int r in
      let complete = Codec.r_bool r in
      Replay_done { cursor; complete }
    | 11 -> Bye
    | 12 -> Ping { token = Codec.r_int r }
    | 13 -> Pong { token = Codec.r_int r }
    | 14 -> Status_req { token = Codec.r_int r }
    | 15 ->
      let token = Codec.r_int r in
      let nodes = Codec.r_list r_node_status r in
      Status { token; nodes }
    | t -> raise (Codec.Corrupt (Printf.sprintf "bad message tag %d" t))
  in
  Codec.r_end r;
  msg

let message_name = function
  | Hello _ -> "hello"
  | Welcome _ -> "welcome"
  | Reject _ -> "reject"
  | Subscribe _ -> "subscribe"
  | Unsubscribe _ -> "unsubscribe"
  | Publish _ -> "publish"
  | Ack _ -> "ack"
  | Nack _ -> "nack"
  | Deliver _ -> "deliver"
  | Replay _ -> "replay"
  | Replay_done _ -> "replay-done"
  | Bye -> "bye"
  | Ping _ -> "ping"
  | Pong _ -> "pong"
  | Status_req _ -> "status-req"
  | Status _ -> "status"

(* {1 Connections} *)

(* The checksum seed doubles as a cheap wire-format guard: both ends
   must agree on it or every frame fails its checksum. *)
let default_seed = 0x7e75eed

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  send_mutex : Mutex.t;
      (* deliveries fan out from whichever connection's thread
         published, so writes to one peer interleave without this *)
}

let conn_of_fd fd =
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    send_mutex = Mutex.create ();
  }

let conn_fd c = c.fd

let send c msg =
  let framed = Codec.frame ~seed:default_seed (encode_message msg) in
  Mutex.lock c.send_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.send_mutex)
    (fun () ->
      output_string c.oc framed;
      flush c.oc)

let recv c schema =
  match
    Codec.read_frame ~max_frame:Codec.default_max_frame ~seed:default_seed c.ic
  with
  | Error _ as e -> e
  | exception Sys_blocked_io ->
    (* A kernel receive deadline (SO_RCVTIMEO) expired: the channel
       layer surfaces the read's EAGAIN as [Sys_blocked_io]. Report it
       as [`Eof] — the handshake (the only caller that arms the
       deadline) abandons the connection either way. *)
    Error `Eof
  | Ok payload -> (
    match decode_message schema payload with
    | msg -> Ok msg
    | exception Codec.Corrupt m -> Error (`Corrupt m))

(* Kernel-level receive deadline: with a timeout set, a blocked read
   fails with EAGAIN, which {!recv} reports as [`Eof]. Used around the
   handshake, where the connection is abandoned on timeout anyway —
   never mid-stream, where a timed-out partial read would desync the
   frame boundary. *)
let set_recv_timeout c = function
  | Some s when s > 0.0 -> (
    try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO s
    with Unix.Unix_error _ | Invalid_argument _ -> ())
  | _ -> (
    try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 0.0
    with Unix.Unix_error _ | Invalid_argument _ -> ())

(* Closing an fd does not wake a thread already blocked in read(2);
   shutdown does, with EOF. Always shut down before joining a thread
   that may be parked in {!recv}. No pre-flush: {!send} flushes every
   frame, so the channel buffer only holds bytes mid-[send] — and
   flushing here would block on the full kernel buffer of exactly the
   stalled peer this is called to get rid of. *)
let shutdown_conn c =
  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let close_conn c =
  (try flush c.oc with Sys_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* {1 Listening and dialing} *)

let listen addr =
  let sock =
    match addr with
    | Unix_sock path ->
      if Sys.file_exists path then Unix.unlink path;
      Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
    | Tcp _ ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      s
  in
  (try Unix.bind sock (sockaddr_of addr)
   with e ->
     Unix.close sock;
     raise e);
  Unix.listen sock 16;
  sock

let accept sock =
  let fd, _ = Unix.accept sock in
  conn_of_fd fd

let dial addr =
  let domain =
    match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     Unix.close fd;
     raise e);
  conn_of_fd fd
