(* The single-node broker: subscriptions, publication, composite
   subscriptions, and quench-cache invalidation. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Broker = Genas_ens.Broker
module Quench = Genas_ens.Quench
module Composite = Genas_ens.Composite
module Notification = Genas_ens.Notification

let schema () =
  Schema.create_exn
    [ ("x", Domain.int_range ~lo:0 ~hi:9); ("k", Domain.enum [ "a"; "b" ]) ]

let event ?(time = 0.0) s x k =
  Event.create_exn ~time s [ ("x", Value.Int x); ("k", Value.Str k) ]

let test_subscribe_publish () =
  let s = schema () in
  let b = Broker.create s in
  let log = ref [] in
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"alice" "x >= 5" (fun n ->
           log := n.Notification.subscriber :: !log))
  in
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"bob" "k = a" (fun n ->
           log := n.Notification.subscriber :: !log))
  in
  Alcotest.(check int) "two notifications" 2 (Broker.publish b (event s 7 "a"));
  Alcotest.(check int) "one" 1 (Broker.publish b (event s 2 "a"));
  Alcotest.(check int) "zero" 0 (Broker.publish b (event s 2 "b"));
  Alcotest.(check int) "published" 3 (Broker.published b);
  Alcotest.(check int) "notifications" 3 (Broker.notifications b);
  (* Primitive deliveries follow ascending profile id. *)
  Alcotest.(check (list string)) "delivery log"
    [ "alice"; "bob"; "bob" ] (List.rev !log)

let test_subscribe_text_error () =
  let b = Broker.create (schema ()) in
  match Broker.subscribe_text b ~subscriber:"x" "nope = 1" (fun _ -> ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let test_unsubscribe () =
  let s = schema () in
  let b = Broker.create s in
  let id =
    Result.get_ok (Broker.subscribe_text b ~subscriber:"a" "x >= 0" (fun _ -> ()))
  in
  Alcotest.(check int) "before" 1 (Broker.publish b (event s 1 "a"));
  Alcotest.(check bool) "removed" true (Broker.unsubscribe b id);
  Alcotest.(check bool) "idempotent" false (Broker.unsubscribe b id);
  Alcotest.(check int) "after" 0 (Broker.publish b (event s 1 "a"))

(* Double unsubscribe must be a pure no-op: the second call returns
   false and must not invalidate the quench cache again (the cached
   table stays physically the same, and an instrumented broker counts
   exactly one invalidation per actual removal). *)
let test_double_unsubscribe_primitive () =
  let s = schema () in
  let reg = Genas_obs.Metrics.create () in
  let b = Broker.create ~metrics:reg s in
  let invalidations () =
    Genas_obs.Metrics.Counter.value
      (Genas_obs.Metrics.counter reg "genas_broker_quench_invalidations_total")
  in
  let id =
    Result.get_ok (Broker.subscribe_text b ~subscriber:"a" "x >= 5" (fun _ -> ()))
  in
  Alcotest.(check bool) "first removal" true (Broker.unsubscribe b id);
  let after_first = invalidations () in
  let q1 = Broker.quench b in
  Alcotest.(check bool) "second is a no-op" false (Broker.unsubscribe b id);
  Alcotest.(check bool) "cache survives the no-op" true (q1 == Broker.quench b);
  Alcotest.(check int) "invalidated exactly once" after_first (invalidations ());
  Alcotest.(check int) "still publishable" 0 (Broker.publish b (event s 7 "a"))

let test_double_unsubscribe_composite () =
  let s = schema () in
  let b = Broker.create s in
  let hot = Profile.create_exn s [ ("x", Predicate.Ge (Value.Int 8)) ] in
  let id =
    Result.get_ok
      (Broker.subscribe_composite b ~subscriber:"w"
         (Composite.Repeat (Composite.Prim hot, 2, 10.0))
         (fun _ -> ()))
  in
  Alcotest.(check bool) "first removal" true (Broker.unsubscribe b id);
  let q1 = Broker.quench b in
  Alcotest.(check bool) "second is a no-op" false (Broker.unsubscribe b id);
  Alcotest.(check bool) "cache survives the no-op" true (q1 == Broker.quench b);
  Alcotest.(check bool) "constituent gone" false
    (Quench.wanted_event q1 (event s 9 "a"))

let test_unsubscribe_stale_id () =
  let s = schema () in
  let b = Broker.create s in
  let stale =
    Result.get_ok (Broker.subscribe_text b ~subscriber:"a" "x = 1" (fun _ -> ()))
  in
  let _ =
    Result.get_ok (Broker.subscribe_text b ~subscriber:"b" "x = 2" (fun _ -> ()))
  in
  ignore (Broker.unsubscribe b stale);
  let q0 = Broker.quench b in
  Alcotest.(check bool) "stale id" false (Broker.unsubscribe b stale);
  Alcotest.(check bool) "cache untouched" true (q0 == Broker.quench b);
  Alcotest.(check bool) "remaining sub intact" true
    (Quench.wanted_event q0 (event s 2 "a"))

let test_notification_payload () =
  let s = schema () in
  let b = Broker.create s in
  let seen = ref None in
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"carol" "x = 3" (fun n -> seen := Some n))
  in
  ignore (Broker.publish b (event s 3 "b"));
  match !seen with
  | None -> Alcotest.fail "no notification"
  | Some n ->
    Alcotest.(check string) "subscriber" "carol" n.Notification.subscriber;
    Alcotest.(check bool) "event attached" true
      (Event.equal n.Notification.event (event s 3 "b"))

let test_composite_subscription () =
  let s = schema () in
  let b = Broker.create s in
  let fired = ref 0 in
  let hot = Profile.create_exn s [ ("x", Predicate.Ge (Value.Int 8)) ] in
  let _ =
    Result.get_ok
      (Broker.subscribe_composite b ~subscriber:"watch"
         (Composite.Repeat (Composite.Prim hot, 2, 10.0))
         (fun _ -> incr fired))
  in
  ignore (Broker.publish b (event ~time:0.0 s 9 "a"));
  Alcotest.(check int) "one hot is not enough" 0 !fired;
  ignore (Broker.publish b (event ~time:5.0 s 8 "a"));
  Alcotest.(check int) "second within window fires" 1 !fired;
  ignore (Broker.publish b (event ~time:100.0 s 9 "a"));
  ignore (Broker.publish b (event ~time:150.0 s 9 "a"));
  Alcotest.(check int) "outside window silent" 1 !fired

let test_composite_invalid () =
  let s = schema () in
  let b = Broker.create s in
  let hot = Profile.create_exn s [ ("x", Predicate.Ge (Value.Int 8)) ] in
  match
    Broker.subscribe_composite b ~subscriber:"w"
      (Composite.Repeat (Composite.Prim hot, 0, 10.0))
      (fun _ -> ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected validation error"

let test_quench_tracks_subscriptions () =
  let s = schema () in
  let b = Broker.create s in
  let q0 = Broker.quench b in
  Alcotest.(check bool) "nothing wanted" false (Quench.wanted_event q0 (event s 1 "a"));
  let id =
    Result.get_ok (Broker.subscribe_text b ~subscriber:"a" "x = 1" (fun _ -> ()))
  in
  let q1 = Broker.quench b in
  Alcotest.(check bool) "wanted now" true (Quench.wanted_event q1 (event s 1 "a"));
  Alcotest.(check bool) "other value unwanted" false
    (Quench.wanted_event q1 (event s 2 "a"));
  ignore (Broker.unsubscribe b id);
  let q2 = Broker.quench b in
  Alcotest.(check bool) "unwanted again" false (Quench.wanted_event q2 (event s 1 "a"))

let test_publish_quenched () =
  let s = schema () in
  let b = Broker.create s in
  let _ =
    Result.get_ok (Broker.subscribe_text b ~subscriber:"a" "x = 1" (fun _ -> ()))
  in
  (match Broker.publish_quenched b (event s 1 "a") with
  | Some 1 -> ()
  | Some n -> Alcotest.failf "expected 1 notification, got %d" n
  | None -> Alcotest.fail "wanted event suppressed");
  (match Broker.publish_quenched b (event s 2 "a") with
  | None -> ()
  | Some _ -> Alcotest.fail "unwanted event published");
  (* Suppressed events never reach the broker's counters. *)
  Alcotest.(check int) "only one event filtered" 1 (Broker.published b)

let test_quench_covers_composites () =
  let s = schema () in
  let b = Broker.create s in
  let hot = Profile.create_exn s [ ("x", Predicate.Eq (Value.Int 9)) ] in
  let _ =
    Result.get_ok
      (Broker.subscribe_composite b ~subscriber:"w"
         (Composite.Repeat (Composite.Prim hot, 3, 10.0))
         (fun _ -> ()))
  in
  let q = Broker.quench b in
  Alcotest.(check bool) "constituent wanted" true
    (Quench.wanted_event q (event s 9 "a"))

(* --- delivery supervision: a raising handler must not starve the
   other subscribers, and every counter pair must stay mutually
   consistent (regression for the publish/publish_batch divergence). *)

module Supervise = Genas_ens.Supervise
module Deadletter = Genas_ens.Deadletter
module Metrics = Genas_obs.Metrics

let counter_value reg ?labels name =
  Metrics.Counter.value (Metrics.counter reg ?labels name)

let test_raising_handler_single () =
  let s = schema () in
  let reg = Metrics.create () in
  let b = Broker.create ~metrics:reg s in
  let bob_log = ref 0 in
  (* alice has the lower profile id, so she is attempted first; her
     failure must not block bob. *)
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"alice" "x >= 5" (fun _ ->
           failwith "alice is broken"))
  in
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"bob" "k = a" (fun _ -> incr bob_log))
  in
  Alcotest.(check int) "only bob delivered" 1 (Broker.publish b (event s 7 "a"));
  Alcotest.(check int) "bob ran" 1 !bob_log;
  Alcotest.(check int) "published" 1 (Broker.published b);
  Alcotest.(check int) "notifications = accepted" 1 (Broker.notifications b);
  Alcotest.(check int) "metric: published" 1
    (counter_value reg "genas_broker_published_total");
  Alcotest.(check int) "metric: notifications" 1
    (counter_value reg "genas_broker_notifications_total");
  Alcotest.(check int) "metric: alice deliveries" 0
    (counter_value reg "genas_broker_deliveries_total"
       ~labels:[ ("subscriber", "alice") ]);
  Alcotest.(check int) "metric: bob deliveries" 1
    (counter_value reg "genas_broker_deliveries_total"
       ~labels:[ ("subscriber", "bob") ]);
  let sup = Broker.supervisor b in
  Alcotest.(check int) "one failed attempt" 1 (Supervise.failures sup);
  Alcotest.(check int) "dead-lettered" 1 (Supervise.deadlettered sup);
  match Deadletter.entries (Broker.deadletter b) with
  | [ e ] ->
    Alcotest.(check string) "dlq subscriber" "alice"
      e.Deadletter.notification.Notification.subscriber
  | l -> Alcotest.failf "expected 1 dead letter, got %d" (List.length l)

let test_raising_handler_batch () =
  let s = schema () in
  let b = Broker.create s in
  let bob_log = ref 0 in
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"alice" "x >= 5" (fun _ ->
           failwith "still broken"))
  in
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"bob" "k = a" (fun _ -> incr bob_log))
  in
  let batch = [| event s 7 "a"; event s 9 "b"; event s 1 "a" |] in
  (* alice matches events 0 and 1 (both fail); bob matches 0 and 2. *)
  Alcotest.(check int) "accepted total" 2 (Broker.publish_batch b batch);
  Alcotest.(check int) "bob ran twice" 2 !bob_log;
  Alcotest.(check int) "published" 3 (Broker.published b);
  Alcotest.(check int) "notifications" 2 (Broker.notifications b);
  Alcotest.(check int) "failures" 2 (Supervise.failures (Broker.supervisor b));
  Alcotest.(check int) "dead letters" 2 (Deadletter.length (Broker.deadletter b))

let test_raising_composite_handler () =
  let s = schema () in
  let b = Broker.create s in
  let prim_log = ref 0 in
  let hot = Profile.create_exn s [ ("x", Predicate.Ge (Value.Int 8)) ] in
  let _ =
    Result.get_ok
      (Broker.subscribe_composite b ~subscriber:"watch"
         (Composite.Repeat (Composite.Prim hot, 2, 10.0))
         (fun _ -> failwith "watcher crashed"))
  in
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"plain" "x >= 0" (fun _ ->
           incr prim_log))
  in
  ignore (Broker.publish b (event ~time:0.0 s 9 "a"));
  ignore (Broker.publish b (event ~time:5.0 s 8 "a"));
  Alcotest.(check int) "primitive deliveries unaffected" 2 !prim_log;
  let sup = Broker.supervisor b in
  Alcotest.(check int) "composite failure supervised" 1 (Supervise.failures sup);
  Alcotest.(check int) "dead-lettered" 1 (Deadletter.length (Broker.deadletter b));
  (* The detector state advanced despite the raise: a fresh pair of hot
     events inside a window trips it again. *)
  ignore (Broker.publish b (event ~time:100.0 s 9 "a"));
  ignore (Broker.publish b (event ~time:105.0 s 9 "a"));
  Alcotest.(check int) "fires again later" 2 (Supervise.failures sup);
  (* Only accepted deliveries count as notifications. *)
  Alcotest.(check int) "notifications exclude failures" 4 (Broker.notifications b)

module Pool = Genas_filter.Pool

(* The pool-width gauge reports the domains a batch actually matched
   on: an aggregated engine and a one-event batch match sequentially
   whatever pool is passed. *)
let test_pool_workers_gauge () =
  let s = schema () in
  let pool = Pool.create ~domains:2 () in
  let publish ~aggregate batch =
    let reg = Metrics.create () in
    let b = Broker.create ~metrics:reg ~aggregate s in
    ignore
      (Result.get_ok
         (Broker.subscribe_text b ~subscriber:"a" "x >= 5" (fun _ -> ())));
    let sent = Broker.publish_batch ~pool b batch in
    (sent, Metrics.Gauge.value (Metrics.gauge reg "genas_broker_pool_workers"))
  in
  let many = [| event s 7 "a"; event s 2 "b"; event s 9 "a" |] in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check (pair int (float 0.))) "aggregated: sequential" (2, 1.)
        (publish ~aggregate:true many);
      Alcotest.(check (pair int (float 0.))) "one event: sequential" (1, 1.)
        (publish ~aggregate:false [| event s 7 "a" |]);
      Alcotest.(check (pair int (float 0.))) "plain batch: two domains" (2, 2.)
        (publish ~aggregate:false many);
      (* The gauge reports the width the batch ran on, not one decided
         afterwards: pending churn keeps a batch sequential, and a
         handler subscribing during a pooled batch does not rewrite
         it. *)
      let reg = Metrics.create () in
      let b = Broker.create ~metrics:reg s in
      let gauge () =
        Metrics.Gauge.value (Metrics.gauge reg "genas_broker_pool_workers")
      in
      let sub who src handler =
        ignore (Result.get_ok (Broker.subscribe_text b ~subscriber:who src handler))
      in
      sub "a" "x >= 5" (fun _ -> ());
      ignore (Broker.publish b (event s 7 "a"));
      sub "b" "k = a" (fun _ -> ());
      Alcotest.(check int) "churn pending" 1
        (Genas_core.Engine.pending_rebuild (Broker.engine b));
      Alcotest.(check int) "pending batch delivers" 4 (Broker.publish_batch ~pool b many);
      Alcotest.(check (float 0.)) "pending churn: sequential" 1. (gauge ());
      Genas_core.Engine.swap_now (Broker.engine b);
      let once = ref true in
      sub "c" "x <= 2" (fun _ ->
          if !once then begin
            once := false;
            sub "d" "x = 9" (fun _ -> ())
          end);
      Genas_core.Engine.swap_now (Broker.engine b);
      ignore (Broker.publish_batch ~pool b many);
      Alcotest.(check int) "handler subscribed" 1
        (Genas_core.Engine.pending_rebuild (Broker.engine b));
      Alcotest.(check (float 0.)) "subscribed mid-batch: still two" 2. (gauge ()))

(* A subscriber name's delivery series lives exactly as long as one of
   its subscriptions, live and after journal replay. *)
let delivery_series name = Printf.sprintf {|genas_broker_deliveries_total{subscriber="%s"}|} name

let has_series reg name = List.mem_assoc (delivery_series name) (Metrics.counters reg)

let test_delivery_series_freed () =
  let s = schema () in
  let reg = Metrics.create () in
  let b = Broker.create ~metrics:reg s in
  let sub who src = Result.get_ok (Broker.subscribe_text b ~subscriber:who src (fun _ -> ())) in
  let a1 = sub "alice" "x >= 5" and a2 = sub "alice" "k = a" in
  let c =
    Result.get_ok
      (Broker.subscribe_composite b ~subscriber:"bob"
         (Composite.Prim (Result.get_ok (Genas_profile.Lang.parse_profile s "x >= 8")))
         (fun _ -> ()))
  in
  ignore (Broker.publish b (event s 9 "a"));
  Alcotest.(check bool) "alice series" true (has_series reg "alice");
  Alcotest.(check bool) "bob series" true (has_series reg "bob");
  ignore (Broker.unsubscribe b a1);
  Alcotest.(check bool) "alice still subscribed" true (has_series reg "alice");
  ignore (Broker.unsubscribe b a2);
  Alcotest.(check bool) "alice freed" false (has_series reg "alice");
  ignore (Broker.unsubscribe b a2);
  ignore (Broker.unsubscribe b c);
  Alcotest.(check bool) "bob freed" false (has_series reg "bob");
  let prom = Metrics.to_prometheus reg in
  Alcotest.(check bool) "scrape drops the series" false
    (List.exists
       (fun l -> String.length l > 29 && String.sub l 0 29 = "genas_broker_deliveries_total")
       (String.split_on_char '\n' prom));
  let a3 = sub "alice" "x >= 5" in
  Alcotest.(check bool) "back again" true (has_series reg "alice");
  ignore (Broker.unsubscribe b a3)

let test_delivery_series_replay () =
  let s = schema () in
  let dir = Filename.temp_file "genas_broker" ".d" in
  Sys.remove dir;
  let b = Broker.create ~journal:(Genas_ens.Journal.config ~snapshot_every:3 dir) s in
  let sub who src = Result.get_ok (Broker.subscribe_text b ~subscriber:who src (fun _ -> ())) in
  ignore (sub "alice" "x >= 5");
  let c1 = sub "carol" "k = a" in
  let c2 = sub "carol" "x <= 2" in
  ignore (Broker.unsubscribe b c1);
  ignore (Broker.publish b (event s 9 "a"));
  ignore (Broker.unsubscribe b c2);
  Broker.close b;
  let reg = Metrics.create () in
  match
    Broker.recover ~metrics:reg ~journal:(Genas_ens.Journal.config ~snapshot_every:3 dir) s
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "alice recovered" true (has_series reg "alice");
    Alcotest.(check bool) "carol freed on replay" false (has_series reg "carol");
    Broker.close r

let () =
  Alcotest.run "broker"
    [
      ( "primitive",
        [
          Alcotest.test_case "subscribe/publish" `Quick test_subscribe_publish;
          Alcotest.test_case "parse errors" `Quick test_subscribe_text_error;
          Alcotest.test_case "unsubscribe" `Quick test_unsubscribe;
          Alcotest.test_case "double unsubscribe (primitive)" `Quick
            test_double_unsubscribe_primitive;
          Alcotest.test_case "double unsubscribe (composite)" `Quick
            test_double_unsubscribe_composite;
          Alcotest.test_case "unsubscribe stale id" `Quick
            test_unsubscribe_stale_id;
          Alcotest.test_case "notification payload" `Quick test_notification_payload;
        ] );
      ( "composite",
        [
          Alcotest.test_case "repeat subscription" `Quick test_composite_subscription;
          Alcotest.test_case "validation" `Quick test_composite_invalid;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "raising handler (publish)" `Quick
            test_raising_handler_single;
          Alcotest.test_case "raising handler (batch)" `Quick
            test_raising_handler_batch;
          Alcotest.test_case "raising composite handler" `Quick
            test_raising_composite_handler;
        ] );
      ( "batch",
        [ Alcotest.test_case "pool workers gauge" `Quick test_pool_workers_gauge ]
      );
      ( "metrics",
        [
          Alcotest.test_case "delivery series freed" `Quick test_delivery_series_freed;
          Alcotest.test_case "delivery series freed on replay" `Quick
            test_delivery_series_replay;
        ] );
      ( "quench",
        [
          Alcotest.test_case "tracks subscriptions" `Quick test_quench_tracks_subscriptions;
          Alcotest.test_case "publish_quenched" `Quick test_publish_quenched;
          Alcotest.test_case "covers composite constituents" `Quick
            test_quench_covers_composites;
        ] );
    ]
