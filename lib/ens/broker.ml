module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Lang = Genas_profile.Lang
module Engine = Genas_core.Engine
module Adaptive = Genas_core.Adaptive
module Explain = Genas_core.Explain
module Stats = Genas_core.Stats
module Ops = Genas_filter.Ops
module Metrics = Genas_obs.Metrics
module Trace = Genas_obs.Trace

type sub_id = Prim_sub of int | Comp_sub of int

module Ids = Map.Make (Int)

type prim_sub = {
  p_subscriber : string;
  p_handler : Notification.handler;
  p_delivered : Metrics.counter option;
}

type comp_sub = {
  subscriber : string;
  detector : Composite.t;
  expr : Composite.expr;  (** source expression, for durable snapshots *)
  prims : Profile.t list;  (** constituents, for the quench table *)
  handler : Notification.handler;
  c_delivered : Metrics.counter option;
}

type instruments = {
  registry : Metrics.t;  (** for per-subscriber delivery counters *)
  published_total : Metrics.counter;
  notifications_total : Metrics.counter;
  quench_invalidations_total : Metrics.counter;
  quench_rebuilds_total : Metrics.counter;
  quench_suppressed_total : Metrics.counter;
  batch_size : Metrics.histogram;
}

let make_instruments registry =
  {
    registry;
    published_total =
      Metrics.counter registry "genas_broker_published_total"
        ~help:"Events accepted by Broker.publish";
    notifications_total =
      Metrics.counter registry "genas_broker_notifications_total"
        ~help:"Notifications delivered to subscribers";
    quench_invalidations_total =
      Metrics.counter registry "genas_broker_quench_invalidations_total"
        ~help:"Quench-cache invalidations (subscription changes)";
    quench_rebuilds_total =
      Metrics.counter registry "genas_broker_quench_rebuilds_total"
        ~help:"Quench-table rebuilds after an invalidation";
    quench_suppressed_total =
      Metrics.counter registry "genas_broker_quench_suppressed_total"
        ~help:"Events suppressed by publish_quenched";
    batch_size =
      Metrics.histogram registry "genas_broker_batch_size"
        ~help:"Events per publish_batch call"
        ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.;
                    4096.; 16384.; 65536. |];
  }

(* Each subscription holds its subscriber's delivery series; the
   series is freed when the name's last subscription goes. *)
let delivery_counter instruments subscriber =
  match instruments with
  | None -> None
  | Some ins ->
    Some
      (Metrics.counter ins.registry "genas_broker_deliveries_total"
         ~help:"Notifications delivered, per subscriber"
         ~labels:[ ("subscriber", subscriber) ])

let release_delivery instruments subscriber =
  match instruments with
  | None -> ()
  | Some ins ->
    Metrics.release ins.registry "genas_broker_deliveries_total"
      ~labels:[ ("subscriber", subscriber) ]

type t = {
  schema : Schema.t;
  pset : Profile_set.t;
  engine : Engine.t;
  handlers : (int, prim_sub) Hashtbl.t;
      (** primitive subscriptions, by profile id *)
  mutable records : string Ids.t;
      (** each primitive's {!Codec.prim} bytes, encoded once for the
          journal and every snapshot, which copies them in this map's id
          order; empty unless journaled *)
  composites : (int, comp_sub) Hashtbl.t;
  mutable next_comp : int;
  mutable quench : Quench.t option;  (** cache; [None] = stale *)
  mutable published : int;
  mutable notifications : int;
  super : Supervise.t;
  faults : Fault.t option;
  journal : Journal.t option;
  tracer : Trace.t option;
  instruments : instruments option;
}

(* The one constructor: [create] and [recover] differ only in the
   engine they pass and the journal they open. *)
let make ?metrics ?retry ?faults ?deadletter_capacity ?tracer ~journal schema
    pset engine =
  {
    schema;
    pset;
    engine;
    handlers = Hashtbl.create 64;
    records = Ids.empty;
    composites = Hashtbl.create 8;
    next_comp = 0;
    quench = None;
    published = 0;
    notifications = 0;
    super =
      Supervise.create ?policy:retry ?deadletter_capacity ?metrics ?tracer
        ~prefix:"genas_broker" ();
    faults;
    journal = Option.map (fun cfg -> Journal.create ?metrics schema cfg) journal;
    tracer;
    instruments = Option.map make_instruments metrics;
  }

let create ?spec ?adaptive ?metrics ?retry ?faults ?deadletter_capacity ?journal
    ?tracer ?aggregate schema =
  let pset = Profile_set.create schema in
  make ?metrics ?retry ?faults ?deadletter_capacity ?tracer ~journal schema pset
    (Engine.create ?spec ?metrics ?adaptive ?aggregate pset)

let schema t = t.schema

let invalidate_quench t =
  (* A no-op on an already-stale cache: repeated unsubscribes of the
     same id must count (and pay for) at most one invalidation. *)
  if t.quench <> None then begin
    t.quench <- None;
    match t.instruments with
    | None -> ()
    | Some ins -> Metrics.Counter.incr ins.quench_invalidations_total
  end

(* -- Durability ---------------------------------------------------- *)

let prim_sub t ~subscriber handler =
  {
    p_subscriber = subscriber;
    p_handler = handler;
    p_delivered = delivery_counter t.instruments subscriber;
  }

let snapshot_data t last_op =
  let profiles =
    {
      Snapshot.count = Ids.cardinal t.records;
      iter = (fun emit -> Ids.iter (fun _ r -> emit r) t.records);
    }
  in
  let composites =
    Hashtbl.fold
      (fun id c acc -> (id, c.subscriber, c.expr) :: acc)
      t.composites []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  let dlq = Supervise.deadletter t.super in
  {
    Snapshot.last_op;
    fingerprint = Codec.schema_fingerprint t.schema;
    profiles;
    next_profile_id = Profile_set.next_id t.pset;
    composites;
    next_comp = t.next_comp;
    published = t.published;
    notifications = t.notifications;
    ops = Engine.ops t.engine;
    stats = Stats.export (Engine.stats t.engine);
    churn = Engine.pending_churn t.engine;
    adaptive = Option.map Adaptive.export (Engine.adaptive t.engine);
    supervise = Supervise.export t.super;
    dlq_entries = Deadletter.entries dlq;
    dlq_total = Deadletter.total dlq;
    dlq_dropped = Deadletter.dropped dlq;
  }

(* Timed whole: the stall the op that crossed the cadence pays. *)
let take_snapshot t j =
  let cfg = Journal.configuration j in
  let t0 = Genas_obs.Clock.now_ns () in
  Snapshot.write ?faults:t.faults ?tracer:t.tracer ~dir:cfg.Journal.dir
    ~seed:cfg.Journal.seed ~op:(Journal.ops_logged j) t.schema
    (snapshot_data t (Journal.ops_logged j - 1));
  Journal.wrote_snapshot j;
  let dt = Int64.to_float (Int64.sub (Genas_obs.Clock.now_ns ()) t0) in
  Journal.observe_snapshot_install j ~ns:dt

let snapshot_now t =
  match t.journal with None -> () | Some j -> take_snapshot t j

let journal_op t op =
  match t.journal with
  | None -> ()
  | Some j ->
    (match t.tracer with
    | None -> Journal.append j ?faults:t.faults op
    | Some tr ->
      Trace.with_span tr ~name:"journal.append" (fun () ->
          Journal.append j ?faults:t.faults op));
    if Journal.snapshot_due j then take_snapshot t j

let wal t = t.journal

let subscribe t ~subscriber ~profile handler =
  let id = Engine.add_profile t.engine profile in
  Hashtbl.replace t.handlers id (prim_sub t ~subscriber handler);
  invalidate_quench t;
  if Option.is_some t.journal then begin
    let prim = Codec.prim t.schema ~id ~subscriber profile in
    t.records <- Ids.add id prim.Codec.record t.records;
    journal_op t (Journal.Subscribe prim)
  end;
  Prim_sub id

let subscribe_text t ~subscriber src handler =
  match Lang.parse_profile ~name:subscriber t.schema src with
  | Error e -> Error e
  | Ok profile -> Ok (subscribe t ~subscriber ~profile handler)

let rec prims_of_expr = function
  | Composite.Prim p -> [ p ]
  | Composite.Seq (a, b, _) | Composite.Both (a, b, _)
  | Composite.Either (a, b) | Composite.Without (a, b, _) ->
    prims_of_expr a @ prims_of_expr b
  | Composite.Repeat (a, _, _) -> prims_of_expr a

let comp_sub t ~subscriber expr handler =
  Result.map
    (fun detector ->
      {
        subscriber;
        detector;
        expr;
        prims = prims_of_expr expr;
        handler;
        c_delivered = delivery_counter t.instruments subscriber;
      })
    (Composite.compile t.schema expr)

let subscribe_composite t ~subscriber expr handler =
  match comp_sub t ~subscriber expr handler with
  | Error e -> Error e
  | Ok c ->
    let id = t.next_comp in
    t.next_comp <- id + 1;
    Hashtbl.replace t.composites id c;
    invalidate_quench t;
    journal_op t (Journal.Subscribe_composite { id; subscriber; expr });
    Ok (Comp_sub id)

(* The registry side of an unsubscription, shared with journal
   replay; [true] if the subscription was live. *)
let drop_prim t id =
  let present = Engine.remove_profile t.engine id in
  if present then begin
    (match Hashtbl.find_opt t.handlers id with
    | Some s -> release_delivery t.instruments s.p_subscriber
    | None -> ());
    Hashtbl.remove t.handlers id;
    t.records <- Ids.remove id t.records;
    invalidate_quench t
  end;
  present

let drop_comp t id =
  match Hashtbl.find_opt t.composites id with
  | None -> false
  | Some c ->
    release_delivery t.instruments c.subscriber;
    Hashtbl.remove t.composites id;
    invalidate_quench t;
    true

let unsubscribe t = function
  | Prim_sub id ->
    let present = drop_prim t id in
    if present then journal_op t (Journal.Unsubscribe_prim { id });
    present
  | Comp_sub id ->
    let present = drop_comp t id in
    if present then journal_op t (Journal.Unsubscribe_comp { id });
    present

let quench t =
  match t.quench with
  | Some q -> q
  | None ->
    (* Merge primitive subscriptions with the constituents of composite
       ones: quenching must not starve a composite detector. *)
    let merged = Profile_set.create t.schema in
    Profile_set.iter t.pset (fun _ p -> ignore (Profile_set.add merged p));
    Hashtbl.iter
      (fun _ c -> List.iter (fun p -> ignore (Profile_set.add merged p)) c.prims)
      t.composites;
    let q = Quench.build merged in
    t.quench <- Some q;
    (match t.instruments with
    | None -> ()
    | Some ins -> Metrics.Counter.incr ins.quench_rebuilds_total);
    q

let deliver_incr counter =
  match counter with None -> () | Some c -> Metrics.Counter.incr c

(* Every handler invocation passes through the supervisor: a raising
   handler is retried/dead-lettered under the broker's policy, so it
   can neither starve later subscribers nor desynchronize the
   published/notifications counters. Only accepted deliveries count. *)
let deliver_prim t event id sent =
  match Hashtbl.find_opt t.handlers id with
  | None -> ()
  | Some sub ->
    if
      Supervise.deliver t.super ?faults:t.faults
        ~subscriber:sub.p_subscriber ~handler:sub.p_handler
        (Notification.make ~event ~origin:(Notification.Primitive id)
           ~subscriber:sub.p_subscriber ())
    then begin
      incr sent;
      deliver_incr sub.p_delivered
    end

let feed_composites t event sent =
  Hashtbl.iter
    (fun cid c ->
      List.iter
        (fun (_ : Composite.occurrence) ->
          if
            Supervise.deliver t.super ?faults:t.faults
              ~subscriber:c.subscriber ~handler:c.handler
              (Notification.make ~event ~origin:(Notification.Composite cid)
                 ~subscriber:c.subscriber ())
          then begin
            incr sent;
            deliver_incr c.c_delivered
          end)
        (Composite.feed c.detector event))
    t.composites

(* A publish record carries the dead letters it caused: the journaled
   op must be self-contained, because replay cannot re-run the
   handlers that failed. *)
let journal_publish t ~events ~batch ~total_before =
  match t.journal with
  | None -> ()
  | Some _ ->
    let dlq = Supervise.deadletter t.super in
    let held = Deadletter.length dlq in
    let keep = Stdlib.min (Deadletter.total dlq - total_before) held in
    let skip = held - keep in
    let new_deadletters =
      List.filteri (fun i _ -> i >= skip) (Deadletter.entries dlq)
    in
    journal_op t
      (Journal.Publish
         {
           events;
           batch;
           published = t.published;
           notifications = t.notifications;
           ops = Engine.ops t.engine;
           supervise = Supervise.export t.super;
           new_deadletters;
           dlq_total = Deadletter.total dlq;
           dlq_dropped = Deadletter.dropped dlq;
         })

(* Attach the traversal of the event just matched to the active trace.
   The path is re-derived from the pointer tree the flat matcher was
   compiled from, which takes the same path edge for edge, so only
   sampled publishes pay for it. *)
let attach_match_path tr engine event matched =
  let x = Explain.trace (Engine.tree engine) event in
  let steps = Array.of_list x.Explain.steps in
  let depth = Array.length steps in
  let len = depth + Option.fold ~none:0 ~some:(fun _ -> 1) x.Explain.leaf in
  (* One slot per step, then the leaf arrival (edge -3) if any. *)
  let at f ~leaf =
    Array.init len (fun i -> if i < depth then f steps.(i) else leaf)
  in
  if len > 0 then
    Trace.attach_path tr
      {
        Trace.path_nodes =
          at (fun s -> s.Explain.node)
            ~leaf:(Option.value x.Explain.leaf ~default:(-1));
        path_levels = at (fun s -> s.Explain.level) ~leaf:depth;
        path_edges =
          at
            (fun s ->
              match s.Explain.outcome with
              | `Edge i -> i
              | `Rest -> -1
              | `Reject -> -2)
            ~leaf:(-3);
        path_comparisons = at (fun s -> s.Explain.comparisons) ~leaf:0;
        path_matched = Array.of_list matched;
      }

(* Wrap a publish entry point in a root trace; an injected crash
   escaping it dumps the flight recorder before propagating. *)
let with_publish_trace t ~name f =
  match t.tracer with
  | None -> f ()
  | Some tr -> (
    try Trace.with_trace tr ~name f
    with Fault.Crashed p as exn ->
      ignore
        (Trace.record_crash tr ~reason:("crashed: " ^ Fault.crash_point_name p));
      raise exn)

let publish_core t event =
  let total_before = Deadletter.total (Supervise.deadletter t.super) in
  t.published <- t.published + 1;
  let matched =
    (* Only pay for the span (and its allocated attrs) when this
       publish was actually sampled into an open trace. The path is
       taken inside [f], in the tree that matched, before the drift
       clock may re-plan it. *)
    match t.tracer with
    | Some tr when Trace.active tr ->
      Trace.with_span tr ~name:"engine.match" (fun () ->
          Engine.match_with t.engine event ~f:(fun ~ids ~len ->
              let matched = List.init len (fun i -> ids.(i)) in
              Trace.add_attr tr "matched" (string_of_int len);
              attach_match_path tr t.engine event matched;
              matched))
    | Some _ | None -> Engine.match_event t.engine event
  in
  let sent = ref 0 in
  List.iter (fun id -> deliver_prim t event id sent) matched;
  feed_composites t event sent;
  t.notifications <- t.notifications + !sent;
  (match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Counter.incr ins.published_total;
    Metrics.Counter.add ins.notifications_total !sent);
  journal_publish t ~events:[| event |] ~batch:false ~total_before;
  !sent

let publish t event =
  with_publish_trace t ~name:"broker.publish" (fun () -> publish_core t event)

let publish_batch_core t events =
  let total_before = Deadletter.total (Supervise.deadletter t.super) in
  let n = Array.length events in
  let results =
    match t.tracer with
    | Some tr when Trace.active tr ->
      Trace.with_span tr ~name:"engine.match_batch" (fun () ->
          let results = Engine.match_batch t.engine events in
          Trace.add_attr tr "events" (string_of_int n);
          results)
    | Some _ | None -> Engine.match_batch t.engine events
  in
  t.published <- t.published + n;
  let sent = ref 0 in
  Array.iteri
    (fun i matched ->
      let event = events.(i) in
      Array.iter (fun id -> deliver_prim t event id sent) matched;
      feed_composites t event sent)
    results;
  t.notifications <- t.notifications + !sent;
  (match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Counter.add ins.published_total n;
    Metrics.Counter.add ins.notifications_total !sent;
    Metrics.Histogram.observe ins.batch_size (float_of_int n));
  journal_publish t ~events ~batch:true ~total_before;
  !sent

let publish_batch t events =
  with_publish_trace t ~name:"broker.publish_batch" (fun () ->
      publish_batch_core t events)

let publish_quenched t event =
  if Quench.wanted_event (quench t) event then Some (publish t event)
  else begin
    (match t.instruments with
    | None -> ()
    | Some ins -> Metrics.Counter.incr ins.quench_suppressed_total);
    None
  end

let replay_deadletters t =
  let dlq = Supervise.deadletter t.super in
  let deliver (e : Deadletter.entry) =
    let n = e.Deadletter.notification in
    let target =
      match n.Notification.origin with
      | Notification.Primitive id ->
        Option.map
          (fun s -> (s.p_subscriber, s.p_handler, s.p_delivered))
          (Hashtbl.find_opt t.handlers id)
      | Notification.Composite id ->
        Option.map
          (fun c -> (c.subscriber, c.handler, c.c_delivered))
          (Hashtbl.find_opt t.composites id)
    in
    match target with
    | None ->
      (* The subscription is gone; keep the letter for the operator. *)
      Deadletter.push dlq e;
      false
    | Some (subscriber, handler, counter) ->
      if Supervise.deliver t.super ?faults:t.faults ~subscriber ~handler n
      then begin
        t.notifications <- t.notifications + 1;
        (match t.instruments with
        | None -> ()
        | Some ins -> Metrics.Counter.incr ins.notifications_total);
        deliver_incr counter;
        true
      end
      else false
  in
  let redelivered, failed = Deadletter.replay dlq ~deliver in
  journal_op t
    (Journal.Deadletter_replay
       {
         published = t.published;
         notifications = t.notifications;
         supervise = Supervise.export t.super;
         dlq_entries = Deadletter.entries dlq;
         dlq_total = Deadletter.total dlq;
         dlq_dropped = Deadletter.dropped dlq;
       });
  (redelivered, failed)

(* -- Recovery ------------------------------------------------------ *)

let set_published t n =
  (match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Counter.add ins.published_total (Stdlib.max 0 (n - t.published)));
  t.published <- n

let set_notifications t n =
  (match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Counter.add ins.notifications_total
      (Stdlib.max 0 (n - t.notifications)));
  t.notifications <- n

(* Replay one journaled operation onto a recovering broker. Matching
   decisions are re-executed (so the learned statistics and composite
   detector streams regrow exactly); counters and supervisor state are
   restored absolutely from the record. *)
let apply_op t resolve op =
  let ( let* ) = Result.bind in
  match op with
  | Journal.Subscribe { id; subscriber; profile; record } -> (
    match Engine.add_profile_with_id t.engine ~id profile with
    | () ->
      Hashtbl.replace t.handlers id
        (prim_sub t ~subscriber (resolve ~subscriber));
      t.records <- Ids.add id record t.records;
      invalidate_quench t;
      Ok ()
    | exception Invalid_argument msg -> Error msg)
  | Journal.Subscribe_composite { id; subscriber; expr } -> (
    match comp_sub t ~subscriber expr (resolve ~subscriber) with
    | Error e -> Error e
    | Ok c ->
      Hashtbl.replace t.composites id c;
      if id >= t.next_comp then t.next_comp <- id + 1;
      invalidate_quench t;
      Ok ())
  | Journal.Unsubscribe_prim { id } ->
    ignore (drop_prim t id);
    Ok ()
  | Journal.Unsubscribe_comp { id } ->
    ignore (drop_comp t id);
    Ok ()
  | Journal.Publish
      {
        events;
        batch;
        published;
        notifications;
        ops;
        supervise;
        new_deadletters;
        dlq_total;
        dlq_dropped;
      } ->
    (* The drift clock ticks as it did live: once per batch for
       [publish_batch], once per event otherwise. *)
    if batch then Engine.replay_batch t.engine events
    else Array.iter (Engine.replay_observe t.engine) events;
    Array.iter
      (fun ev ->
        Hashtbl.iter
          (fun _ c -> ignore (Composite.feed c.detector ev))
          t.composites)
      events;
    set_published t published;
    set_notifications t notifications;
    Engine.restore_ops t.engine ops;
    let dlq = Supervise.deadletter t.super in
    List.iter (Deadletter.push dlq) new_deadletters;
    Deadletter.force_counters dlq ~total:dlq_total ~dropped:dlq_dropped;
    let* () = Supervise.import t.super supervise in
    Ok ()
  | Journal.Deadletter_replay
      { published; notifications; supervise; dlq_entries; dlq_total; dlq_dropped }
    ->
    set_published t published;
    set_notifications t notifications;
    Deadletter.restore
      (Supervise.deadletter t.super)
      dlq_entries ~total:dlq_total ~dropped:dlq_dropped;
    let* () = Supervise.import t.super supervise in
    Ok ()

let recover ?spec ?adaptive ?metrics ?retry ?faults ?deadletter_capacity
    ?tracer ?aggregate
    ?(handlers = fun ~subscriber:_ -> fun (_ : Notification.t) -> ())
    ~journal:cfg schema =
  let ( let* ) = Result.bind in
  let* recovered, j = Journal.recover ?metrics schema cfg in
  let pset = Profile_set.create schema in
  (* Profiles go in before the engine is created: the engine's first
     tree is then built from the restored set, and the stats imported
     below are not wiped by a staleness refresh. *)
  let* () =
    match recovered.Journal.snapshot with
    | None -> Ok ()
    | Some snap -> (
      match
        List.iter
          (fun (p : Codec.prim) ->
            Profile_set.add_with_id pset ~id:p.id p.profile)
          snap.Snapshot.profiles
      with
      | () ->
        Profile_set.reserve_ids pset snap.Snapshot.next_profile_id;
        Ok ()
      | exception Invalid_argument msg -> Error msg)
  in
  let engine = Engine.create ?spec ?metrics ?adaptive ?aggregate pset in
  let* () =
    match recovered.Journal.snapshot with
    | None -> Ok ()
    | Some snap -> (
      match Engine.restore_churn engine snap.Snapshot.churn with
      | () -> Ok ()
      | exception Invalid_argument msg -> Error msg)
  in
  (* The journal is attached after replay, so replaying never
     re-journals. *)
  let t =
    make ?metrics ?retry ?faults ?deadletter_capacity ?tracer ~journal:None
      schema pset engine
  in
  let resolve = handlers in
  let* () =
    match recovered.Journal.snapshot with
    | None -> Ok ()
    | Some snap ->
      List.iter
        (fun { Codec.id; subscriber; record; _ } ->
          Hashtbl.replace t.handlers id
            (prim_sub t ~subscriber (resolve ~subscriber));
          t.records <- Ids.add id record t.records)
        snap.Snapshot.profiles;
      let* () = Stats.import (Engine.stats engine) snap.Snapshot.stats in
      Engine.restore_ops engine snap.Snapshot.ops;
      let* () =
        match (Engine.adaptive engine, snap.Snapshot.adaptive) with
        | Some a, Some e -> Adaptive.import a (Engine.stats engine) e
        | _ -> Ok ()
      in
      let* () =
        List.fold_left
          (fun acc (id, subscriber, expr) ->
            let* () = acc in
            let* c = comp_sub t ~subscriber expr (resolve ~subscriber) in
            Hashtbl.replace t.composites id c;
            Ok ())
          (Ok ()) snap.Snapshot.composites
      in
      t.next_comp <- Stdlib.max t.next_comp snap.Snapshot.next_comp;
      set_published t snap.Snapshot.published;
      set_notifications t snap.Snapshot.notifications;
      Deadletter.restore
        (Supervise.deadletter t.super)
        snap.Snapshot.dlq_entries ~total:snap.Snapshot.dlq_total
        ~dropped:snap.Snapshot.dlq_dropped;
      Supervise.import t.super snap.Snapshot.supervise
  in
  let* () =
    List.fold_left
      (fun acc op ->
        let* () = acc in
        apply_op t resolve op)
      (Ok ()) recovered.Journal.tail
  in
  Ok { t with journal = Some j }

let close t = match t.journal with None -> () | Some j -> Journal.close j

let ops t = Engine.ops t.engine

let supervisor t = t.super

let deadletter t = Supervise.deadletter t.super

let faults t = t.faults

let published t = t.published

let notifications t = t.notifications

let subscription_count t = Profile_set.size t.pset + Hashtbl.length t.composites

let subscriptions t =
  let prims =
    Hashtbl.fold
      (fun id s acc -> (Prim_sub id, s.p_subscriber) :: acc)
      t.handlers []
  in
  let comps =
    Hashtbl.fold
      (fun id c acc -> (Comp_sub id, c.subscriber) :: acc)
      t.composites []
  in
  List.sort Stdlib.compare (prims @ comps)

let engine t = t.engine

let rebuilds t =
  match Engine.adaptive t.engine with
  | Some a -> Adaptive.rebuilds a
  | None -> 0

let tracer t = t.tracer

let dump_flight_recorder t = Option.map Trace.dump t.tracer
