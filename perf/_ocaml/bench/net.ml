(* The networked deployment: a Broker_server in its own OS process (this
   executable re-run as [main.exe serve SOCKET]), and in the generator
   process one publishing and one subscribing Broker_client, each on
   its own domain, over at most two connections. *)

module Event = Genas_model.Event
module Broker = Genas_ens.Broker
module Server = Genas_ens.Broker_server
module Client = Genas_ens.Broker_client
module Transport = Genas_ens.Transport
module Notification = Genas_ens.Notification
module Metrics = Genas_obs.Metrics
module Trace = Genas_obs.Trace

(* Every node gets a metrics registry and a tracer that never samples,
   as [genas serve --trace-out] runs. *)
let obs node =
  let metrics = Metrics.create () in
  let tracer =
    Trace.create ~sample:0.0 ~capacity:64 ~metrics
      ~seed:(Hashtbl.hash node land 0x3FFFFFFF) ()
  in
  (metrics, tracer)

(* [genas serve --max-queue]: large enough that a subscriber briefly
   descheduled on a shared core is not dropped as a slow consumer. *)
let max_queue = 65_536

(* The server process: serve until the parent closes our stdin. *)
let serve sock =
  let metrics, tracer = obs "server" in
  let b = Broker.create ~metrics ~tracer Inputs.schema in
  let srv =
    Server.create ~name:"server" ~max_queue ~metrics ~tracer ~broker:b
      (Transport.Unix_sock sock)
  in
  Server.start srv;
  print_string "ready\n";
  flush stdout;
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  Server.stop srv;
  Broker.close b

type server = {
  pid : int;
  to_srv : out_channel;
  from_srv : in_channel;
  addr : Transport.addr;
}

let spawned = ref 0

let spawn_server ~dir =
  incr spawned;
  (* Relative to the checkout: Unix socket paths are capped at 108
     bytes, the checkout's absolute path is not. *)
  let sock = Filename.concat dir (Printf.sprintf "srv%d.sock" !spawned) in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve"; sock |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let s =
    {
      pid;
      to_srv = Unix.out_channel_of_descr in_w;
      from_srv = Unix.in_channel_of_descr out_r;
      addr = Transport.Unix_sock sock;
    }
  in
  match input_line s.from_srv with
  | "ready" -> s
  | line -> failwith ("server: unexpected " ^ line)
  | exception End_of_file -> failwith "server exited before it was ready"

(* Close the server's stdin and reap it (killing it after 10 s);
   returns its peak RSS in MB. *)
let stop_server s =
  let rss = Host.vm_hwm_mb (string_of_int s.pid) in
  close_out s.to_srv;
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      reap (tries - 1)
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  reap 1000;
  close_in s.from_srv;
  rss

let connect ?local ~name addr =
  let metrics, tracer = obs name in
  match Client.connect ?local ~name ~metrics ~tracer Inputs.schema addr with
  | Ok c -> c
  | Error e -> failwith (Printf.sprintf "connect %s: %s" name e)

(* Subscriber-side record of deliveries, keyed by the event's seq. *)
type sink = {
  counts : int array;
  first_ns : float array;  (** first handler for that seq *)
  names : int list array;  (** profile indices, sampled seqs only *)
  total : int Atomic.t;
}

let sink n =
  {
    counts = Array.make n 0;
    first_ns = Array.make n 0.0;
    names = Array.make n [];
    total = Atomic.make 0;
  }

let sampled seq = seq land 63 = 0

let handler sink i (n : Notification.t) =
  let s = Event.seq n.Notification.event in
  if s >= 0 && s < Array.length sink.counts then begin
    if sink.first_ns.(s) = 0.0 then sink.first_ns.(s) <- Stat.now_ns ();
    sink.counts.(s) <- sink.counts.(s) + 1;
    if sampled s then sink.names.(s) <- i :: sink.names.(s)
  end;
  Atomic.incr sink.total

type node = {
  srv : server;
  pub : Client.t;
  sub : Client.t;
  sub_domain : unit Domain.t;
  stop : bool Atomic.t;
}

(* Server start, both connections, and every profile subscribed (and
   forwarded, where it is a covering root) at the subscriber. The
   subscriber's domain then applies deliveries until [stop]. With
   [aggregate] the subscriber's local broker aggregates too, as a
   10^4-profile covering population needs. *)
let setup ?(aggregate = false) ~dir ~profiles ~sink () =
  let srv = spawn_server ~dir in
  let handle = Atomic.make None and failed = Atomic.make None in
  let stop = Atomic.make false in
  let sub_domain =
    Domain.spawn (fun () ->
        match
          let local =
            if aggregate then Some (Broker.create ~aggregate Inputs.schema) else None
          in
          let c = connect ?local ~name:"sub" srv.addr in
          Array.iteri
            (fun i p ->
              match
                Client.subscribe c ~subscriber:(Printf.sprintf "s%d" i)
                  (Inputs.body p) (handler sink i)
              with
              | Ok _ -> ()
              | Error e -> failwith ("subscribe: " ^ e))
            profiles;
          c
        with
        | exception e -> Atomic.set failed (Some (Printexc.to_string e))
        | c ->
          Atomic.set handle (Some c);
          while not (Atomic.get stop) do
            ignore (Client.await_deliveries ~timeout:0.05 c max_int)
          done;
          Client.close c)
  in
  let pub = connect ~name:"pub" srv.addr in
  let rec wait () =
    match (Atomic.get handle, Atomic.get failed) with
    | Some c, _ -> c
    | None, Some e ->
      Domain.join sub_domain;
      failwith e
    | None, None ->
      Unix.sleepf 0.0005;
      wait ()
  in
  let sub = wait () in
  { srv; pub; sub; sub_domain; stop }

let teardown n =
  Atomic.set n.stop true;
  Domain.join n.sub_domain;
  Client.close n.pub;
  stop_server n.srv

(* Block until the sink has seen [target] deliveries or [timeout] s. *)
let await_total sink target ~timeout =
  let deadline = Stat.now_ns () +. (timeout *. 1e9) in
  while Atomic.get sink.total < target && Stat.now_ns () < deadline do
    Unix.sleepf 0.0005
  done;
  Atomic.get sink.total >= target

(* Sleep until [due]. No spinning: on a shared core a spinning
   generator takes the CPU the server and the subscriber need. Sleep
   overshoot is recorded as generator lateness; perf/run.py cuts the
   timer slack to keep it small. *)
let rec wait_until due =
  let d = due -. Stat.now_ns () in
  if d > 0.0 then begin
    Unix.sleepf (d /. 1e9);
    wait_until due
  end

(* One publish of pool vector [seq land mask] under a unique seq. *)
let publish_seq (inp : Inputs.t) pub seq =
  Client.publish pub (Inputs.event ~seq inp.Inputs.values.(seq land Inputs.mask))

type rung = {
  rate : float;
  first_seq : int;
  n : int;
  pub_ns : float array;  (** due time to Ack *)
  late_ns : float array;  (** due time to send *)
  due_ns : float array;
  mutable errors : int;
  mutable drained : bool;
}

(* An open loop at [rate] events/s for [n] events, evenly spaced; every
   latency counts from the event's due time. [around] wraps each
   publish (the traced run puts a span there). *)
let open_loop ?(around = fun f -> f ()) (inp : Inputs.t) pub ~rate ~first_seq ~n =
  let r =
    {
      rate;
      first_seq;
      n;
      pub_ns = Array.make n 0.0;
      late_ns = Array.make n 0.0;
      due_ns = Array.make n 0.0;
      errors = 0;
      drained = false;
    }
  in
  let interval = 1e9 /. rate in
  let t0 = Stat.now_ns () +. 1e6 in
  for k = 0 to n - 1 do
    let due = t0 +. (float_of_int k *. interval) in
    wait_until due;
    r.due_ns.(k) <- due;
    r.late_ns.(k) <- Stat.now_ns () -. due;
    (match around (fun () -> publish_seq inp pub (first_seq + k)) with
    | Ok _ -> ()
    | Error _ -> r.errors <- r.errors + 1);
    r.pub_ns.(k) <- Stat.now_ns () -. due
  done;
  r

(* Due time to first subscriber handler, for the events that match. *)
let notify_ns sink r =
  let b = Stat.Buf.create () in
  for k = 0 to r.n - 1 do
    let f = sink.first_ns.(r.first_seq + k) in
    if f > 0.0 then Stat.Buf.add b (f -. r.due_ns.(k))
  done;
  Stat.Buf.to_array b

(* Compare the delivery count of every seq below [upto] against the
   reference and, on sampled seqs, the exact set of subscriptions. *)
let check out (inp : Inputs.t) ~expected ~reference sink ~upto =
  for seq = 0 to upto - 1 do
    let e = inp.Inputs.values.(seq land Inputs.mask) in
    let want = expected.(seq land Inputs.mask) in
    let got = sink.counts.(seq) in
    if got <> want then
      Out.fail out (Printf.sprintf "seq %d: %d deliveries, reference %d" seq got want)
    else if sampled seq then begin
      let ids = List.sort compare sink.names.(seq) in
      if ids <> reference (Inputs.event ~seq e) then
        Out.fail out (Printf.sprintf "seq %d: wrong subscriptions" seq)
    end
  done

(* The engine's comparison counters, from the server's metrics as a
   Status round trip reports them. *)
let server_counter pub prefix =
  match Client.status_request pub with
  | Error _ -> 0
  | Ok nodes ->
    List.fold_left
      (fun acc (ns : Transport.node_status) ->
        List.fold_left
          (fun acc (name, v) ->
            if String.length name >= String.length prefix
               && String.sub name 0 (String.length prefix) = prefix
            then acc + v
            else acc)
          acc ns.Transport.ns_counters)
      0 nodes

let queue_depth pub =
  match Client.status_request pub with
  | Error _ -> 0
  | Ok nodes ->
    List.fold_left
      (fun acc (ns : Transport.node_status) ->
        List.fold_left
          (fun acc (p : Transport.peer_status) -> max acc p.Transport.ps_queue)
          acc ns.Transport.ns_peers)
      0 nodes
