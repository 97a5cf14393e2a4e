module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Lattice = Genas_profile.Lattice
module Engine = Genas_core.Engine

type node_id = int

type dest = Local of string * Notification.handler | Link of node_id

type node = {
  id : node_id;
  neighbors : node_id list;
  pset : Profile_set.t;
  engine : Engine.t;
  dests : (int, dest) Hashtbl.t;  (** interest profile id → destination *)
  forwarded : (node_id, Lattice.t) Hashtbl.t;
      (** per outgoing link: covering lattice over the profiles already
          forwarded there — the covered-check that gates propagation is
          a root scan instead of a rescan of every forwarded entry *)
}

type sub_handle = int

type live_sub = {
  at : node_id;
  subscriber : string;
  profile : Profile.t;
  handler : Notification.handler;
}

type t = {
  schema : Schema.t;
  nodes : node array;
  live : (sub_handle, live_sub) Hashtbl.t;
  mutable next_handle : int;
  mutable next_fwd : int;  (** fresh ids for forwarded-table entries *)
  mutable sub_msgs : int;
  mutable unsub_msgs : int;
  mutable event_msgs : int;
  mutable notifications : int;
  mutable link_drops : int;
  mutable link_duplicates : int;
  mutable link_delays : int;
  mutable broker_pauses : int;
  super : Supervise.t;
  faults : Fault.t option;
}

let validate_tree ~nodes ~edges =
  if nodes <= 0 then Error "need at least one broker"
  else if List.length edges <> nodes - 1 then
    Error "a tree over n brokers needs exactly n-1 links"
  else begin
    let adj = Array.make nodes [] in
    let bad = ref None in
    List.iter
      (fun (a, b) ->
        if a < 0 || a >= nodes || b < 0 || b >= nodes || a = b then
          bad := Some "link endpoint out of range"
        else begin
          adj.(a) <- b :: adj.(a);
          adj.(b) <- a :: adj.(b)
        end)
      edges;
    match !bad with
    | Some e -> Error e
    | None ->
      (* n-1 edges + connectivity = tree. *)
      let seen = Array.make nodes false in
      let rec bfs = function
        | [] -> ()
        | x :: rest ->
          if seen.(x) then bfs rest
          else begin
            seen.(x) <- true;
            bfs (adj.(x) @ rest)
          end
      in
      bfs [ 0 ];
      if Array.for_all Fun.id seen then Ok adj
      else Error "broker topology is not connected"
  end

let make_nodes schema adj =
  Array.init (Array.length adj) (fun id ->
      let pset = Profile_set.create schema in
      {
        id;
        neighbors = adj.(id);
        pset;
        engine = Engine.create pset;
        dests = Hashtbl.create 32;
        forwarded = Hashtbl.create 4;
      })

let make ?retry ?faults ?deadletter_capacity schema ~nodes ~edges =
  match validate_tree ~nodes ~edges with
  | Error e -> Error e
  | Ok adj ->
    Ok
      {
        schema;
        nodes = make_nodes schema adj;
        live = Hashtbl.create 32;
        next_handle = 0;
        next_fwd = 0;
        sub_msgs = 0;
        unsub_msgs = 0;
        event_msgs = 0;
        notifications = 0;
        link_drops = 0;
        link_duplicates = 0;
        link_delays = 0;
        broker_pauses = 0;
        super =
          Supervise.create ?policy:retry ?deadletter_capacity
            ~prefix:"genas_router" ();
        faults;
      }

let make_exn ?retry ?faults ?deadletter_capacity schema ~nodes ~edges =
  match make ?retry ?faults ?deadletter_capacity schema ~nodes ~edges with
  | Ok t -> t
  | Error msg -> invalid_arg ("Router.create: " ^ msg)

let create schema ~nodes ~edges = make schema ~nodes ~edges

let create_exn schema ~nodes ~edges = make_exn schema ~nodes ~edges

let line ?retry ?faults ?deadletter_capacity schema ~nodes =
  make_exn ?retry ?faults ?deadletter_capacity schema ~nodes
    ~edges:(List.init (nodes - 1) (fun i -> (i, i + 1)))

let star schema ~leaves =
  make_exn schema
    ~nodes:(leaves + 1)
    ~edges:(List.init leaves (fun i -> (0, i + 1)))

(* Install an interest at [node] for [dest], then propagate it over
   every other link unless a covering profile was already sent there.
   The per-link forwarded tables are covering lattices, so the covered
   check scans only the covering-minimal roots. [count] controls
   whether propagation is charged to the message counter (retraction
   replays silently). *)
let rec add_interest t ~count node profile dest =
  let id = Engine.add_profile node.engine profile in
  Hashtbl.replace node.dests id dest;
  let came_from = match dest with Link n -> Some n | Local _ -> None in
  List.iter
    (fun nb ->
      if Some nb <> came_from then begin
        let fwd =
          match Hashtbl.find_opt node.forwarded nb with
          | Some l -> l
          | None ->
            let l = Lattice.create t.schema in
            Hashtbl.add node.forwarded nb l;
            l
        in
        if Option.is_none (Lattice.covered_by fwd profile) then begin
          let fid = t.next_fwd in
          t.next_fwd <- fid + 1;
          ignore (Lattice.add fwd ~id:fid profile);
          if count then t.sub_msgs <- t.sub_msgs + 1;
          add_interest t ~count t.nodes.(nb) profile (Link node.id)
        end
      end)
    node.neighbors

let subscribe t ~at ~subscriber ~profile handler =
  if at < 0 || at >= Array.length t.nodes then
    invalid_arg "Router.subscribe: no such broker";
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  Hashtbl.replace t.live handle { at; subscriber; profile; handler };
  add_interest t ~count:true t.nodes.(at) profile
    (Local (subscriber, handler));
  handle

let unsubscribe t handle =
  match Hashtbl.find_opt t.live handle with
  | None -> false
  | Some _ ->
    Hashtbl.remove t.live handle;
    (* Retraction by recomputation: rebuild every broker's interest
       table in place from the remaining live subscriptions (replayed
       without charging subscription messages). The retraction fan-out
       is charged semantically: a forwarded entry that disappears
       costs one unsubscribe message on its link {e unless} a
       surviving entry on the same link still covers it — the
       neighbor's routing obligation is unchanged, so no message need
       cross the wire. In particular retracting a profile while an
       equivalent (or broader) one remains live costs nothing. The
       nodes themselves (and their engines) are kept: the replayed
       churn joins each engine's pending delta, which folds into a
       re-plan that absorbs the learned event history, so one churn
       event does not reset distribution-based reordering
       network-wide. *)
    let before =
      Array.map
        (fun node ->
          Hashtbl.fold
            (fun nb fwd acc ->
              (nb, List.map snd (Lattice.entries fwd)) :: acc)
            node.forwarded [])
        t.nodes
    in
    Array.iter
      (fun node ->
        List.iter
          (fun id -> ignore (Engine.remove_profile node.engine id))
          (Profile_set.ids node.pset);
        Hashtbl.reset node.dests;
        Hashtbl.reset node.forwarded)
      t.nodes;
    let handles =
      Hashtbl.fold (fun h _ acc -> h :: acc) t.live [] |> List.sort Int.compare
    in
    List.iter
      (fun h ->
        let s = Hashtbl.find t.live h in
        add_interest t ~count:false t.nodes.(s.at) s.profile
          (Local (s.subscriber, s.handler)))
      handles;
    let charged = ref 0 in
    Array.iteri
      (fun i links ->
        let node = t.nodes.(i) in
        List.iter
          (fun (nb, profiles) ->
            let after = Hashtbl.find_opt node.forwarded nb in
            List.iter
              (fun p ->
                let still_covered =
                  match after with
                  | None -> false
                  | Some fwd -> Option.is_some (Lattice.covered_by fwd p)
                in
                if not still_covered then incr charged)
              profiles)
          links)
      before;
    t.unsub_msgs <- t.unsub_msgs + !charged;
    true

(* One unit of routing work: an event arriving at a broker. [deferred]
   marks arrivals that already went through the deferred queue (a
   paused broker defers an arrival at most once, so fault plans with
   pause probability 1.0 still terminate). *)
type job = { node : node_id; from : node_id option; deferred : bool }

(* Event propagation as an explicit worklist. The LIFO stack visits
   brokers in exactly the order the former recursive implementation
   did, so fault-free runs are bit-identical to pre-supervision
   behavior; link faults (drop/duplicate/delay) and broker pauses hook
   into the forwarding step, and delayed/paused work is parked on a
   FIFO queue that drains once the undelayed propagation is done. *)
let route t event ~at =
  let stack = ref [ { node = at; from = None; deferred = false } ] in
  let parked = Queue.create () in
  let park job = Queue.add job parked in
  let forward ~src job =
    t.event_msgs <- t.event_msgs + 1;
    match t.faults with
    | None -> stack := job :: !stack
    | Some plan -> (
      match Fault.link_fate plan ~src ~dst:job.node with
      | `Forward -> stack := job :: !stack
      | `Drop -> t.link_drops <- t.link_drops + 1
      | `Duplicate ->
        (* The duplicate is a second message on the wire. *)
        t.event_msgs <- t.event_msgs + 1;
        t.link_duplicates <- t.link_duplicates + 1;
        stack := job :: job :: !stack
      | `Delay ->
        t.link_delays <- t.link_delays + 1;
        park job)
  in
  let pauses job =
    (not job.deferred)
    &&
    match t.faults with
    | None -> false
    | Some plan ->
      let hit = Fault.broker_pauses plan ~node:job.node in
      if hit then t.broker_pauses <- t.broker_pauses + 1;
      hit
  in
  let process job =
    if pauses job then park { job with deferred = true }
    else
      let node = t.nodes.(job.node) in
      let matched = Engine.match_event node.engine event in
      let links = ref [] in
      List.iter
        (fun id ->
          match Hashtbl.find_opt node.dests id with
          | None -> ()
          | Some (Local (subscriber, handler)) ->
            if
              Supervise.deliver t.super ?faults:t.faults ~subscriber ~handler
                (Notification.make ~broker:node.id ~event
                   ~origin:(Notification.Primitive id) ~subscriber ())
            then t.notifications <- t.notifications + 1
          | Some (Link nb) ->
            if Some nb <> job.from && not (List.mem nb !links) then
              links := nb :: !links)
        matched;
      (* Pushing in match order pops in reverse match order — the order
         the recursive implementation iterated [!links]. *)
      List.iter
        (fun nb ->
          forward ~src:node.id
            { node = nb; from = Some node.id; deferred = false })
        (List.rev !links)
  in
  let rec drain () =
    match !stack with
    | job :: rest ->
      stack := rest;
      process job;
      drain ()
    | [] ->
      if not (Queue.is_empty parked) then begin
        stack := [ Queue.pop parked ];
        drain ()
      end
  in
  drain ()

let publish t ~at event =
  if at < 0 || at >= Array.length t.nodes then
    invalid_arg "Router.publish: no such broker";
  let before = t.notifications in
  route t event ~at;
  t.notifications - before

let sub_messages t = t.sub_msgs

let unsub_messages t = t.unsub_msgs

let event_messages t = t.event_msgs

let notifications t = t.notifications

let link_drops t = t.link_drops

let link_duplicates t = t.link_duplicates

let link_delays t = t.link_delays

let broker_pauses t = t.broker_pauses

let supervisor t = t.super

let deadletter t = Supervise.deadletter t.super

let broker_ops t id = Engine.ops t.nodes.(id).engine

let broker_stats t id = Engine.stats t.nodes.(id).engine

let interest_count t id = Profile_set.size t.nodes.(id).pset
