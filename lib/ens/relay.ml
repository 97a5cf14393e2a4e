(* A relay broker: one node that is simultaneously a served broker
   (downstream face, {!Broker_server}) and a client of another broker
   (upstream face, {!Broker_client}), spliced together so chain and
   tree topologies deliver exactly what one flat {!Router} would.

   The splice is four rules:

   - {b subscriptions up}: every distinct profile body subscribed by a
     downstream peer is mirrored upstream through
     {!Broker_client.forward_profile}, refcounted by body — N
     downstream subscribers to one body cost one upstream forward, and
     the client's own lattice then applies covering minimization on
     top. Mirrors retire only on {e explicit} downstream unsubscribes:
     a dropped downstream connection keeps its forwards alive
     ("sticky"), because the peer is expected to reconnect and replay,
     and retiring mid-reconnect would open a data-loss window upstream.

   - {b events up}: a publish accepted from a downstream peer is
     forwarded upstream with its origin preserved
     ({!Broker_client.forward_up}); while the upstream link is down
     the batches buffer in the client's outbox and flush after
     auto-reconnect.

   - {b events down}: an upstream delivery is re-published into the
     served broker with its origin preserved, so downstream peers
     receive it under the server's origin-aware no-echo rule.

   - {b no echo}: an upstream delivery whose origin is this relay or
     any node ever seen below it is dropped before application — it
     entered the mesh through us, so everyone below already has it.
     Replayed frames carry no origin; they are covered instead by the
     applied-set dedup, because {!Broker_client.forward_up} marks the
     upstream cursors of everything we sent up as applied.

   Origin tags are node names, so names must be unique mesh-wide. *)

module Schema = Genas_model.Schema
module Event = Genas_model.Event

type t = {
  name : string;
  broker : Broker.t;
  server : Broker_server.t;
  mutable client : Broker_client.t option;  (* None only mid-create *)
  mu : Mutex.t;
  origins_below : (string, unit) Hashtbl.t;
  fwd : (string, int * int) Hashtbl.t;  (* body -> (client token, refcount) *)
}

let server t = t.server

let client t = Option.get t.client

let create ?journal ?metrics ?tracer
    ?(heartbeat = Some Transport.default_heartbeat)
    ?(reconnect = Supervise.retry_policy ~backoff_ns:5e7 ~jitter:0.5 ())
    ?(deadline_s = 30.0) ?max_queue ?tick_s ?(start = true) ~name ~up ~listen
    schema =
  let broker = Broker.create ?journal ?metrics schema in
  let mu = Mutex.create () in
  let origins_below = Hashtbl.create 8 in
  let fwd = Hashtbl.create 8 in
  (* The server and client each need the other: the server's hooks
     forward through the client, the client's delivery path publishes
     through the server. The server exists first (unstarted — hooks
     cannot fire before [serve]/[start]); its hooks reach the client
     through this cell. *)
  let client_ref = ref None in
  let with_client f = match !client_ref with Some c -> f c | None -> () in
  let on_accept ~conn_id:_ ~origin ~ctx events =
    Mutex.lock mu;
    Hashtbl.replace origins_below origin ();
    Mutex.unlock mu;
    (* [ctx] is the server's own hop span (when tracing), so the next
       hop up parents under this relay, not under the original leaf. *)
    with_client (fun c -> Broker_client.forward_up ~ctx c ~origin events)
  in
  (* Lock order, load-bearing: [mu] is only ever held alone. The
     upstream client's own lock is taken by [forward_profile] /
     [retire_profile] / [forward_up], and the client calls back into
     [skip_origin] (which takes [mu]) while holding it — so holding
     [mu] across a client call would deadlock. A placeholder entry
     ([-1] token) claims a body under [mu] so concurrent subscribers
     refcount one mirror; the real token is patched in afterwards. *)
  let on_subscribe ~conn_id:_ ~token:_ ~subscriber:_ ~body =
    Mutex.lock mu;
    let claim =
      match Hashtbl.find_opt fwd body with
      | Some (tok, n) ->
        Hashtbl.replace fwd body (tok, n + 1);
        false
      | None ->
        Hashtbl.replace fwd body (-1, 1);
        true
    in
    Mutex.unlock mu;
    if claim then
      with_client (fun c ->
          match Broker_client.forward_profile c ~subscriber:name body with
          | Error _ -> ()
          | Ok tok ->
            Mutex.lock mu;
            (match Hashtbl.find_opt fwd body with
            | Some (_, n) -> Hashtbl.replace fwd body (tok, n)
            | None -> ());
            Mutex.unlock mu)
  in
  let on_unsubscribe ~conn_id:_ ~token:_ ~body =
    Mutex.lock mu;
    let retire =
      match Hashtbl.find_opt fwd body with
      | Some (tok, 1) ->
        Hashtbl.remove fwd body;
        if tok < 0 then None else Some tok
      | Some (tok, n) ->
        Hashtbl.replace fwd body (tok, n - 1);
        None
      | None -> None
    in
    Mutex.unlock mu;
    match retire with
    | Some tok -> with_client (fun c -> Broker_client.retire_profile c tok)
    | None -> ()
  in
  let server =
    Broker_server.create ~name ~role:"relay" ?metrics ?tracer ~heartbeat
      ?max_queue ~on_accept ~on_subscribe ~on_unsubscribe ~broker listen
  in
  let skip_origin o =
    String.equal o name
    ||
    (Mutex.lock mu;
     let below = Hashtbl.mem origins_below o in
     Mutex.unlock mu;
     below)
  in
  let on_deliver ~cursor:_ ~idx:_ ~origin ~ctx event =
    let via =
      match !client_ref with Some c -> Broker_client.upstream c | None -> ""
    in
    ignore (Broker_server.publish ~origin ~via ~ctx server [| event |])
  in
  match
    Broker_client.connect ~name ~deadline_s ~heartbeat ~reconnect
      ?metrics ?tracer ?tick_s ~auto_drain:true ~on_deliver ~skip_origin
      ~local:broker schema up
  with
  | Error e ->
    Broker_server.stop server;
    Broker.close broker;
    Error (Printf.sprintf "relay %s: upstream %s: %s" name
             (Transport.addr_to_string up) e)
  | Ok c ->
    client_ref := Some c;
    (* A Status_req from below answers with this relay's row followed
       by whatever the rest of the upstream chain reports — each hop
       prepends itself, so the list arrives in hop order. *)
    Broker_server.set_on_status server (fun () ->
        Broker_server.status server
        ::
        (match Broker_client.status_request c with
        | Ok nodes -> nodes
        | Error _ -> []));
    let t =
      { name; broker; server; client = Some c; mu; origins_below; fwd }
    in
    if start then Broker_server.start t.server;
    Ok t

(* Publish at the relay itself: downstream via the served broker,
   upstream via the outbox (both tagged with the relay's name). *)
let publish t events =
  let cursor = Broker_server.publish t.server events in
  (match t.client with
  | Some c -> Broker_client.forward_up c ~origin:t.name events
  | None -> ());
  cursor

let close t =
  (match t.client with Some c -> Broker_client.close c | None -> ());
  Broker_server.stop t.server;
  Broker.close t.broker
