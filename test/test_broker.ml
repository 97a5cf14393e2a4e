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

(* Pending churn and a handler that subscribes mid-batch: the batch is
   matched before any of it is delivered, so the new subscription waits
   pending for the next publish. *)
let test_batch_pending_churn () =
  let s = schema () in
  let b = Broker.create s in
  let many = [| event s 7 "a"; event s 2 "b"; event s 9 "a" |] in
  let sub who src handler =
    ignore (Result.get_ok (Broker.subscribe_text b ~subscriber:who src handler))
  in
  sub "a" "x >= 5" (fun _ -> ());
  ignore (Broker.publish b (event s 7 "a"));
  sub "b" "k = a" (fun _ -> ());
  Alcotest.(check int) "churn pending" 1
    (Genas_core.Engine.pending_rebuild (Broker.engine b));
  Alcotest.(check int) "pending batch delivers" 4 (Broker.publish_batch b many);
  Genas_core.Engine.swap_now (Broker.engine b);
  let once = ref true in
  sub "c" "x <= 2" (fun _ ->
      if !once then begin
        once := false;
        sub "d" "x = 9" (fun _ -> ())
      end);
  Genas_core.Engine.swap_now (Broker.engine b);
  Alcotest.(check int) "subscribed mid-batch: not yet delivered" 5
    (Broker.publish_batch b many);
  Alcotest.(check int) "handler subscribed" 1
    (Genas_core.Engine.pending_rebuild (Broker.engine b))

(* The engine's per-event histograms observe sampled events only, and
   a batch samples exactly as the same events published one by one:
   the counters stay exact, the first event is always sampled, and the
   two histograms always hold the same events. *)
let test_batch_histograms () =
  let s = schema () in
  let comparisons reg = Metrics.histogram reg "genas_engine_match_comparisons" in
  let durations reg = Metrics.histogram reg "genas_engine_match_duration_ns" in
  let count = Metrics.Histogram.count in
  let same_events reg =
    Alcotest.(check int) "histograms hold the same events"
      (count (comparisons reg)) (count (durations reg))
  in
  let broker aggregate =
    let reg = Metrics.create () in
    let b = Broker.create ~metrics:reg ~aggregate s in
    ignore
      (Result.get_ok
         (Broker.subscribe_text b ~subscriber:"a" "x >= 5" (fun _ -> ())));
    (reg, b)
  in
  let events n f = Array.init n (fun i -> event s (f i) (if i mod 3 = 0 then "a" else "b")) in
  List.iter
    (fun aggregate ->
      (* [single] publishes one by one what [batched] publishes as
         one event and then two batches. *)
      let reg1, single = broker aggregate and reg, batched = broker aggregate in
      ignore (Broker.publish single (event s 1 "b"));
      Alcotest.(check int) "first event sampled" 1 (count (comparisons reg1));
      same_events reg1;
      ignore (Broker.publish batched (event s 1 "b"));
      let batch = events 9 Fun.id in
      ignore (Broker.publish_batch batched batch);
      Array.iter (fun e -> ignore (Broker.publish single e)) batch;
      Alcotest.(check int) "events counted" 10
        (Metrics.Counter.value (Metrics.counter reg "genas_engine_events_total"));
      (* Long enough for several samples. *)
      let more = events 1000 (fun i -> i * 7 mod 10) in
      ignore (Broker.publish_batch batched more);
      Array.iter (fun e -> ignore (Broker.publish single e)) more;
      List.iter same_events [ reg; reg1 ];
      let n = count (comparisons reg) in
      if n < 2 || n >= 1010 then Alcotest.failf "%d of 1010 events sampled" n;
      Alcotest.(check int) "batch samples as single publishes"
        (count (comparisons reg1)) n;
      let h = comparisons reg and h1 = comparisons reg1 in
      Alcotest.(check bool) "comparison buckets bit-identical" true
        (Metrics.Histogram.buckets h1 = Metrics.Histogram.buckets h
        && Metrics.Histogram.overflow h1 = Metrics.Histogram.overflow h
        && Int64.bits_of_float (Metrics.Histogram.sum h1)
           = Int64.bits_of_float (Metrics.Histogram.sum h)))
    [ false; true ]

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

(* --- counters read from their owners: every series the registry
   reads at export equals its owner's own tally, at every quiescent
   point of a scenario that drives each of them. *)

module Journal = Genas_ens.Journal
module Adaptive = Genas_core.Adaptive

let series reg ?(labels = "") name =
  List.assoc_opt (name ^ labels) (Metrics.counters reg)

let owner_tallies b =
  let sup = Broker.supervisor b and ops = Broker.ops b in
  let dropped = Deadletter.dropped (Broker.deadletter b) in
  let open Genas_filter.Ops in
  [
    ("genas_broker_published_total", Broker.published b);
    ("genas_broker_notifications_total", Broker.notifications b);
    ("genas_engine_events_total", ops.events);
    ("genas_engine_matches_total", ops.matches);
    ("genas_engine_comparisons_total", ops.comparisons);
    ("genas_broker_handler_failures_total", Supervise.failures sup);
    ("genas_broker_retries_total", Supervise.retries sup);
    ("genas_broker_deadletters_total", Supervise.deadlettered sup);
    ("genas_broker_deadletter_dropped_total", dropped);
    ("genas_broker_circuit_trips_total", Supervise.trips sup);
    ("genas_broker_short_circuited_total", Supervise.short_circuited sup);
  ]
  @ (if Genas_core.Engine.aggregated (Broker.engine b) then
       [ ("genas_engine_epoch_swaps_total", Genas_core.Engine.epoch (Broker.engine b)) ]
     else [])
  @ (match Genas_core.Engine.adaptive (Broker.engine b) with
    | None -> []
    | Some a ->
      [
        ("genas_adaptive_checks_total", Adaptive.checks a);
        ("genas_adaptive_rebuilds_total", Adaptive.rebuilds a);
      ])
  @
  match Broker.wal b with
  | None -> []
  | Some j ->
    [
      ("genas_journal_appends_total", Journal.appends j);
      ("genas_journal_snapshots_total", Journal.snapshots_written j);
      ("genas_journal_truncations_total", Journal.truncations j);
      ("genas_journal_replayed_ops_total", Journal.replayed_ops j);
    ]

let check_owners ~step reg b =
  List.iter
    (fun (name, owner) ->
      Alcotest.(check (option int)) (step ^ ": " ^ name) (Some owner) (series reg name))
    (owner_tallies b)

let test_registry_matches_owners () =
  let s = schema () in
  let dir = Filename.temp_file "genas_owners" ".d" in
  Sys.remove dir;
  let journal = Journal.config ~snapshot_every:1_000_000 dir in
  let retry =
    Supervise.retry_policy ~max_attempts:2 ~jitter:0.0 ~trip_after:2 ~cooldown:3 ()
  in
  let adaptive = { Adaptive.default_policy with Adaptive.warmup = 8; check_every = 16 } in
  let reg = Metrics.create () in
  let b =
    Broker.create ~metrics:reg ~retry ~adaptive ~deadletter_capacity:3 ~journal s
  in
  (* Accepted deliveries per subscriber name, reset when the name's
     last subscription goes (its series restarts). *)
  let accepted = Hashtbl.create 4 in
  let tally who = Option.value ~default:0 (Hashtbl.find_opt accepted who) in
  let count who = Hashtbl.replace accepted who (tally who + 1) in
  let broken = ref true in
  let handler who _ = if who = "alice" && !broken then failwith "alice is down" else count who in
  let sub who src = Result.get_ok (Broker.subscribe_text b ~subscriber:who src (handler who)) in
  let _alice = sub "alice" "x >= 5" and bob1 = sub "bob" "k = a" in
  let bob2 = sub "bob" "x <= 3" and carol = sub "carol" "x = 7" in
  let hot = Result.get_ok (Genas_profile.Lang.parse_profile s "x >= 8") in
  ignore
    (Result.get_ok
       (Broker.subscribe_composite b ~subscriber:"dave" (Composite.Prim hot) (handler "dave")));
  let check_all step =
    check_owners ~step reg b;
    List.iter
      (fun who ->
        Alcotest.(check (option int))
          (Printf.sprintf "%s: deliveries of %s" step who)
          (Some (tally who))
          (series reg "genas_broker_deliveries_total"
             ~labels:(Printf.sprintf {|{subscriber="%s"}|} who)))
      [ "alice"; "bob"; "dave" ];
    let j = Option.get (Broker.wal b) in
    (* No snapshot yet: every appended byte is still in the file, and
       every append and the header paid one fsync. *)
    if Journal.snapshots_written j = 0 then begin
      Alcotest.(check (option int)) (step ^ ": journal bytes")
        (Some (Journal.size_bytes j - 16)) (series reg "genas_journal_bytes_total");
      Alcotest.(check (option int)) (step ^ ": journal fsyncs")
        (Some (1 + Journal.appends j)) (series reg "genas_journal_fsyncs_total")
    end
  in
  check_all "subscribed";
  for x = 0 to 9 do
    ignore (Broker.publish b (event s x (if x mod 2 = 0 then "a" else "b")))
  done;
  check_all "publish";
  ignore (Broker.publish_batch b (Array.init 40 (fun i -> event s (i mod 10) "a")));
  check_all "publish_batch";
  Alcotest.(check bool) "alice tripped" true (Supervise.trips (Broker.supervisor b) > 0);
  Alcotest.(check bool) "dead letters dropped" true
    (Deadletter.dropped (Broker.deadletter b) > 0);
  broken := false;
  ignore (Broker.replay_deadletters b);
  check_all "dead-letter replay";
  ignore (Broker.unsubscribe b bob1);
  ignore (Broker.publish b (event s 2 "a"));
  check_all "one of bob's subscriptions dropped";
  ignore (Broker.unsubscribe b bob2);
  Hashtbl.remove accepted "bob";
  Alcotest.(check (option int)) "bob's series freed" None
    (series reg "genas_broker_deliveries_total" ~labels:{|{subscriber="bob"}|});
  ignore (sub "bob" "x <= 3");
  ignore (Broker.publish b (event s 1 "a"));
  check_all "bob resubscribed";
  ignore (Broker.unsubscribe b carol);
  Broker.snapshot_now b;
  ignore (Broker.publish b (event s 9 "b"));
  check_all "snapshot";
  Broker.close b;
  let reg2 = Metrics.create () in
  match Broker.recover ~metrics:reg2 ~retry ~adaptive ~deadletter_capacity:3 ~journal s with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_owners ~step:"recovered" reg2 r;
    Alcotest.(check (option int)) "recovered: published" (Some (Broker.published b))
      (series reg2 "genas_broker_published_total");
    ignore (Broker.publish r (event s 9 "a"));
    check_owners ~step:"recovered publish" reg2 r;
    Broker.close r;
    (* An aggregated engine's epoch swaps are its epoch. *)
    let reg = Metrics.create () in
    let a = Broker.create ~metrics:reg ~aggregate:true s in
    List.iter
      (fun src -> ignore (Result.get_ok (Broker.subscribe_text a ~subscriber:"e" src (fun _ -> ()))))
      [ "x >= 2"; "x >= 5"; "k = a" ];
    Genas_core.Engine.swap_now (Broker.engine a);
    ignore (Broker.publish a (event s 6 "a"));
    Alcotest.(check bool) "aggregated engine swapped" true
      (Genas_core.Engine.epoch (Broker.engine a) > 0);
    check_owners ~step:"aggregated" reg a

(* One scraping thread reads the registry while the main thread
   publishes: no counter ever reads lower than the scrape before, and
   once the publisher stops every series equals its owner. *)
let test_concurrent_scrape () =
  let s = schema () in
  let reg = Metrics.create () in
  let retry = Supervise.retry_policy ~max_attempts:2 ~jitter:0.0 () in
  let b = Broker.create ~metrics:reg ~retry s in
  let sub who src handler =
    ignore (Result.get_ok (Broker.subscribe_text b ~subscriber:who src handler))
  in
  let n = 100_000 in
  let calls = ref 0 in
  sub "a" "x >= 5" (fun _ -> ());
  sub "b" "k = a" (fun _ -> ());
  sub "c" "x <= 2" (fun _ -> incr calls; if !calls mod 7 = 0 then failwith "flaky");
  let stop = Atomic.make false in
  let scrapes = ref 0 and regressions = ref [] in
  let scraper =
    Thread.create
      (fun () ->
        let last = Hashtbl.create 32 in
        while not (Atomic.get stop) do
          List.iter
            (fun (name, v) ->
              (match Hashtbl.find_opt last name with
              | Some prev when v < prev -> regressions := (name, prev, v) :: !regressions
              | _ -> ());
              Hashtbl.replace last name v)
            (Metrics.counters reg);
          incr scrapes;
          Thread.yield ()
        done)
      ()
  in
  for i = 0 to n - 1 do
    ignore (Broker.publish b (event s (i mod 10) (if i mod 3 = 0 then "a" else "b")));
    if i land 1023 = 0 then Thread.yield ()
  done;
  Atomic.set stop true;
  Thread.join scraper;
  (match !regressions with
  | [] -> ()
  | (name, prev, v) :: _ -> Alcotest.failf "%s went from %d down to %d" name prev v);
  if !scrapes < 2 then Alcotest.failf "only %d scrapes overlapped the publishes" !scrapes;
  check_owners ~step:"after the publisher stopped" reg b;
  Alcotest.(check (option int)) "published" (Some n) (series reg "genas_broker_published_total")

(* --- traced publishes: the path a sampled publish attaches is the
   reference tree's walk of the event, it accounts for exactly the
   comparisons the flat matcher charged, and tracing changes nothing
   the broker matches or delivers. *)

module Ops = Genas_filter.Ops
module Profile_set = Genas_profile.Profile_set
module Engine = Genas_core.Engine
module Explain = Genas_core.Explain
module Reorder = Genas_core.Reorder
module Selectivity = Genas_core.Selectivity
module Trace = Genas_obs.Trace
module Gen = Genas_testlib.Gen

(* Linear, binary and hashed edge location, under a reordered tree. *)
let spec_of value_choice =
  {
    Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
    value_choice;
  }

let value_choices = [ `Measure Selectivity.V1; `Binary; `Hashed ]

(* A broker over [pset] whose deliveries land in [log] as
   (subscriber, origin); pending churn folded, so every publish runs on
   the compiled matcher alone. *)
let filled_broker ?aggregate ?tracer ~value_choice schema pset log =
  let b = Broker.create ~spec:(spec_of value_choice) ?aggregate ?tracer schema in
  Profile_set.iter pset (fun id p ->
      ignore
        (Broker.subscribe b ~subscriber:(string_of_int id) ~profile:p (fun n ->
             log := (n.Notification.subscriber, n.Notification.origin) :: !log)));
  Engine.refresh_keeping_history (Broker.engine b);
  b

let ops_tuple (o : Ops.t) = (o.comparisons, o.node_visits, o.events, o.matches)

let path_matches_reference b tr event ~charged =
  let x = Explain.trace (Engine.tree (Broker.engine b)) event in
  let last = List.nth_opt (List.rev (Trace.traces tr)) 0 in
  match Option.bind last (fun (t : Trace.trace) -> t.path) with
  | None -> x.Explain.steps = [] && x.Explain.leaf = None && charged = 0
  | Some p ->
    let k = Array.length p.Trace.path_nodes in
    let steps = Array.of_list x.Explain.steps in
    let nsteps = Array.length steps in
    let edge (s : Explain.step) =
      match s.outcome with `Edge i -> i | `Rest -> -1 | `Reject -> -2
    in
    p.Trace.path_levels = Array.init k Fun.id
    && Array.fold_left ( + ) 0 p.Trace.path_comparisons = charged
    && k = nsteps + (match x.Explain.leaf with Some _ -> 1 | None -> 0)
    && Array.for_all Fun.id
         (Array.mapi
            (fun i (s : Explain.step) ->
              p.Trace.path_nodes.(i) = s.node
              && p.Trace.path_edges.(i) = edge s
              && p.Trace.path_comparisons.(i) = s.comparisons)
            steps)
    && (match x.Explain.leaf with
       | Some id ->
         p.Trace.path_nodes.(nsteps) = id && p.Trace.path_edges.(nsteps) = -3
       | None -> true)

let prop_trace_path_is_reference =
  QCheck.Test.make ~name:"sampled path = reference trace, tracing inert"
    ~count:40
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:12 ~n_events:20 ()))
    (fun (schema, pset, events) ->
      List.for_all
        (fun value_choice ->
          (* Plain broker at sample 1.0: every publish attaches a path. *)
          let tr = Trace.create ~sample:1.0 ~seed:3 () in
          let traced_log = ref [] and plain_log = ref [] in
          let traced =
            filled_broker ~tracer:tr ~value_choice schema pset traced_log
          in
          let plain = filled_broker ~value_choice schema pset plain_log in
          let paths_ok =
            List.for_all
              (fun e ->
                let before = (Broker.ops traced).Ops.comparisons in
                let sent = Broker.publish traced e in
                let charged = (Broker.ops traced).Ops.comparisons - before in
                sent = Broker.publish plain e
                && path_matches_reference traced tr e ~charged)
              events
          in
          (* Aggregated twins: same deliveries and counters too. *)
          let agg_traced_log = ref [] and agg_plain_log = ref [] in
          let agg_traced =
            filled_broker ~aggregate:true
              ~tracer:(Trace.create ~sample:1.0 ~seed:3 ())
              ~value_choice schema pset agg_traced_log
          in
          let agg_plain =
            filled_broker ~aggregate:true ~value_choice schema pset
              agg_plain_log
          in
          List.iter
            (fun e ->
              ignore (Broker.publish agg_traced e);
              ignore (Broker.publish agg_plain e))
            events;
          paths_ok
          && !traced_log = !plain_log
          && ops_tuple (Broker.ops traced) = ops_tuple (Broker.ops plain)
          && !agg_traced_log = !agg_plain_log
          && ops_tuple (Broker.ops agg_traced)
             = ops_tuple (Broker.ops agg_plain))
        value_choices)

(* A bare broker (no registry, tracer or journal) over the paper's
   table: a publish allocates the matched-id list and, per delivery,
   the notification and its bookkeeping, and nothing per step of the
   supervised delivery. *)
let test_allocation_guard () =
  let pset, events = Genas_testlib.Paper.table () in
  let b = Broker.create (Genas_profile.Profile_set.schema pset) in
  Genas_profile.Profile_set.iter pset (fun i p ->
      ignore
        (Broker.subscribe b ~subscriber:(Printf.sprintf "s%d" i) ~profile:p
           (fun _ -> ())));
  Genas_core.Engine.refresh_keeping_history (Broker.engine b);
  let n = 65_536 in
  let run () =
    for i = 0 to n - 1 do
      ignore (Broker.publish b events.(i land 1023))
    done
  in
  run ();
  let w = Genas_testlib.Paper.minor_words run /. float_of_int n in
  Alcotest.(check bool) "the table delivers" true (Broker.notifications b > n);
  (* 12.5 words at 1.04 deliveries per publish; a fresh circuit
     restored in [Supervise.deliver] (3 words per delivery), a closure
     there (5 words or more per delivery) or in [Engine.match_event]'s
     id list (4 words per publish) fails it. *)
  if w > 13.5 then Alcotest.failf "Broker.publish allocated %.1f words per publish" w

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
          Alcotest.test_case "allocation guard" `Quick test_allocation_guard;
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
        [
          Alcotest.test_case "pending churn and mid-batch subscribe" `Quick
            test_batch_pending_churn;
          Alcotest.test_case "per-event histograms" `Quick test_batch_histograms;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "delivery series freed" `Quick test_delivery_series_freed;
          Alcotest.test_case "delivery series freed on replay" `Quick
            test_delivery_series_replay;
          Alcotest.test_case "registry matches its owners" `Quick
            test_registry_matches_owners;
          Alcotest.test_case "concurrent scrape" `Quick test_concurrent_scrape;
        ] );
      ( "tracing", [ QCheck_alcotest.to_alcotest prop_trace_path_is_reference ] );
      ( "quench",
        [
          Alcotest.test_case "tracks subscriptions" `Quick test_quench_tracks_subscriptions;
          Alcotest.test_case "publish_quenched" `Quick test_publish_quenched;
          Alcotest.test_case "covers composite constituents" `Quick
            test_quench_covers_composites;
        ] );
    ]
