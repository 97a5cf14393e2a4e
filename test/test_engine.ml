(* The filter engine facade: matching, refusal of registry edits made
   outside it, spec changes, and operation accounting. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Tree = Genas_filter.Tree
module Ops = Genas_filter.Ops
module Engine = Genas_core.Engine
module Selectivity = Genas_core.Selectivity
module Reorder = Genas_core.Reorder

let schema () =
  Schema.create_exn
    [ ("x", Domain.int_range ~lo:0 ~hi:9); ("y", Domain.int_range ~lo:0 ~hi:9) ]

let event s x y = Event.create_exn s [ ("x", Value.Int x); ("y", Value.Int y) ]

let test_basic_matching () =
  let s = schema () in
  let pset = Profile_set.create s in
  let id =
    Result.get_ok
      (Profile_set.add_spec pset [ ("x", Predicate.Ge (Value.Int 5)) ])
  in
  let engine = Engine.create pset in
  Alcotest.(check (list int)) "hit" [ id ] (Engine.match_event engine (event s 7 0));
  Alcotest.(check (list int)) "miss" [] (Engine.match_event engine (event s 2 0))

(* A registry edited behind the engine's back is refused by every entry
   point, in both modes: the compiled matcher, the statistics and the
   lattice would describe another set. *)
let test_refuses_edit_outside () =
  let s = schema () in
  List.iter
    (fun aggregate ->
      let pset = Profile_set.create s in
      let p = Profile.create_exn s [ ("y", Predicate.Le (Value.Int 5)) ] in
      let engine = Engine.create ~aggregate pset in
      let id = Engine.add_profile engine p in
      Alcotest.(check (list int)) "engine churn is fine" [ id ]
        (Engine.match_event engine (event s 5 5));
      ignore (Profile_set.add pset p);
      let refused name f =
        Alcotest.check_raises name
          (Invalid_argument "Engine: profile set edited outside the engine")
          (fun () -> ignore (f ()))
      in
      let e = event s 5 5 in
      refused "match_event" (fun () -> Engine.match_event engine e);
      refused "match_with" (fun () ->
          Engine.match_with engine e ~f:(fun ~ids:_ ~len -> len));
      refused "match_batch" (fun () -> Engine.match_batch engine [| e |]);
      refused "replay_observe" (fun () -> Engine.replay_observe engine e);
      refused "replay_batch" (fun () -> Engine.replay_batch engine [| e |]);
      refused "add_profile" (fun () -> Engine.add_profile engine p);
      refused "add_profile_with_id" (fun () ->
          Engine.add_profile_with_id engine ~id:100 p);
      refused "remove_profile" (fun () -> Engine.remove_profile engine id);
      refused "swap_now" (fun () -> Engine.swap_now engine);
      refused "set_spec" (fun () -> Engine.set_spec engine Reorder.default_spec);
      refused "refresh_keeping_history" (fun () ->
          Engine.refresh_keeping_history engine);
      Alcotest.(check int) "nothing observed after the edit" 1
        (Engine.ops engine).Ops.events)
    [ false; true ]

let test_ops_accumulate_and_observe () =
  let s = schema () in
  let pset = Profile_set.create s in
  ignore (Result.get_ok (Profile_set.add_spec pset [ ("x", Predicate.Eq (Value.Int 3)) ]));
  let engine = Engine.create pset in
  for i = 0 to 9 do
    ignore (Engine.match_event engine (event s i i))
  done;
  let ops = Engine.ops engine in
  Alcotest.(check int) "events" 10 ops.Ops.events;
  Alcotest.(check bool) "comparisons counted" true (ops.Ops.comparisons > 0);
  Alcotest.(check int) "stats observed" 10
    (Genas_core.Stats.events_seen (Engine.stats engine))

let test_set_spec_rebuilds () =
  let s = schema () in
  let pset = Profile_set.create s in
  ignore (Result.get_ok (Profile_set.add_spec pset [ ("x", Predicate.Ge (Value.Int 2)) ]));
  ignore (Result.get_ok (Profile_set.add_spec pset [ ("y", Predicate.Le (Value.Int 7)) ]));
  let engine = Engine.create pset in
  let before = Engine.tree engine in
  Engine.set_spec engine
    { Reorder.attr_choice = Reorder.Attr_explicit [| 1; 0 |];
      value_choice = `Binary };
  let after = Engine.tree engine in
  Alcotest.(check bool) "tree replaced" true (before != after);
  Alcotest.(check (list int)) "new attr order" [ 1; 0 ]
    (Array.to_list after.Tree.config.Tree.attr_order);
  (* Semantics unchanged. *)
  Alcotest.(check (list int)) "same matches" [ 0; 1 ]
    (Engine.match_event engine (event s 5 5))

let test_rebuild_keeps_observations () =
  let s = schema () in
  let pset = Profile_set.create s in
  ignore (Result.get_ok (Profile_set.add_spec pset [ ("x", Predicate.Ge (Value.Int 5)) ]));
  let engine = Engine.create pset in
  for _ = 1 to 50 do
    ignore (Engine.match_event engine (event s 9 9))
  done;
  Engine.swap_now engine;
  Alcotest.(check int) "history kept across rebuild" 50
    (Genas_core.Stats.events_seen (Engine.stats engine))

let test_auto_and_hashed_specs () =
  let s = schema () in
  let pset = Profile_set.create s in
  ignore (Result.get_ok (Profile_set.add_spec pset [ ("x", Predicate.Ge (Value.Int 3)) ]));
  ignore (Result.get_ok (Profile_set.add_spec pset [ ("y", Predicate.Le (Value.Int 6)) ]));
  List.iter
    (fun value_choice ->
      let engine =
        Engine.create
          ~spec:{ Reorder.attr_choice = Reorder.Attr_a3; value_choice }
          pset
      in
      (* Semantics must be independent of the spec. *)
      Alcotest.(check (list int)) "both match" [ 0; 1 ]
        (Engine.match_event engine (event s 5 5));
      Alcotest.(check (list int)) "one matches" [ 1 ]
        (Engine.match_event engine (event s 1 5)))
    [ `Auto; `Hashed; `Measure Genas_core.Selectivity.V3 ]

let test_report_reflects_tree () =
  let s = schema () in
  let pset = Profile_set.create s in
  ignore (Result.get_ok (Profile_set.add_spec pset [ ("x", Predicate.Eq (Value.Int 0)) ]));
  let engine = Engine.create pset in
  let r = Engine.report engine in
  Alcotest.(check bool) "positive expected cost" true (r.Genas_core.Cost.per_event > 0.0);
  Alcotest.(check bool) "match prob = 0.1 under uniform" true
    (Float.abs (r.Genas_core.Cost.match_prob -. 0.1) < 1e-9)

(* -- Plain-engine churn: pending delta instead of a rebuild --------- *)

module Naive = Genas_filter.Naive
module Metrics = Genas_obs.Metrics
module Broker = Genas_ens.Broker
module Workload = Genas_expt.Workload
module Gen = Genas_testlib.Gen

let v1a2 =
  {
    Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
    value_choice = `Measure Selectivity.V1;
  }

let rebuilds_total reg =
  Option.value ~default:0
    (List.assoc_opt "genas_engine_rebuilds_total" (Metrics.counters reg))

let test_churn_joins_pending () =
  let s = schema () in
  let pset = Profile_set.create s in
  let reg = Metrics.create () in
  let engine = Engine.create ~metrics:reg pset in
  let a = Engine.add_profile engine (Profile.create_exn s [ ("x", Predicate.Ge (Value.Int 5)) ]) in
  let b = Engine.add_profile engine (Profile.create_exn s [ ("y", Predicate.Le (Value.Int 3)) ]) in
  Alcotest.(check int) "two pending" 2 (Engine.pending_rebuild engine);
  Alcotest.(check int) "nothing rebuilt yet" 0 (rebuilds_total reg);
  (* The empty tree's rent limit is zero: the first event folds. *)
  Alcotest.(check (list int)) "fold on first event" [ a; b ]
    (Engine.match_event engine (event s 7 1));
  Alcotest.(check int) "folded" 0 (Engine.pending_rebuild engine);
  Alcotest.(check int) "one rebuild" 1 (rebuilds_total reg);
  let c = Engine.add_profile engine (Profile.create_exn s [ ("x", Predicate.Eq (Value.Int 7)) ]) in
  ignore (Engine.remove_profile engine a);
  Alcotest.(check int) "one delta, one dead" 2 (Engine.pending_rebuild engine);
  Alcotest.(check (float 0.)) "exported gauge" 2.0
    (Metrics.Gauge.value (Metrics.gauge reg "genas_engine_pending_rebuild"));
  Alcotest.(check (list int)) "pending path" [ b; c ]
    (Engine.match_event engine (event s 7 1));
  Alcotest.(check int) "still no rebuild" 1 (rebuilds_total reg);
  ignore (Engine.remove_profile engine c);
  Alcotest.(check int) "delta id dropped" 1 (Engine.pending_rebuild engine);
  let seen = Genas_core.Stats.events_seen (Engine.stats engine) in
  Engine.swap_now engine;
  Alcotest.(check int) "rebuild folds" 0 (Engine.pending_rebuild engine);
  Alcotest.(check int) "history absorbed" seen
    (Genas_core.Stats.events_seen (Engine.stats engine));
  Alcotest.(check (list int)) "after fold" [ b ] (Engine.match_event engine (event s 7 1))

(* Rent is charged per pending window: once unsubscribes drain the
   tables, the next window starts from zero. An engine rebuilt from the
   drained registry — what crash recovery does from a snapshot — then
   folds the next window at the same event as the original. *)
let test_rent_restarts_per_window () =
  let s = schema () in
  let prof = Profile.create_exn s in
  let base =
    [ [ ("x", Predicate.Ge (Value.Int 5)) ]; [ ("y", Predicate.Le (Value.Int 3)) ] ]
  in
  let pset = Profile_set.create s in
  List.iter (fun spec -> ignore (Profile_set.add pset (prof spec))) base;
  let a = Engine.create pset in
  let w1 = Engine.add_profile a (prof [ ("x", Predicate.Eq (Value.Int 1)) ]) in
  for i = 0 to 4 do
    ignore (Engine.match_event a (event s i i))
  done;
  ignore (Engine.remove_profile a w1);
  Alcotest.(check int) "window drained" 0 (Engine.pending_rebuild a);
  let copy = Profile_set.create s in
  Profile_set.iter pset (fun id p -> Profile_set.add_with_id copy ~id p);
  let b = Engine.create copy in
  let w2 = prof [ ("y", Predicate.Eq (Value.Int 2)) ] in
  let id = Profile_set.next_id pset in
  Engine.add_profile_with_id a ~id w2;
  Engine.add_profile_with_id b ~id w2;
  let folded e = Engine.pending_rebuild e = 0 in
  let i = ref 0 in
  while not (folded a && folded b) do
    ignore (Engine.match_event a (event s (!i mod 10) 2));
    ignore (Engine.match_event b (event s (!i mod 10) 2));
    Alcotest.(check bool) (Printf.sprintf "same fold point, event %d" !i)
      (folded a) (folded b);
    incr i
  done;
  Alcotest.(check bool) "the window paid rent first" true (!i > 1)

(* A snapshot records pending churn instead of folding it: an engine
   created over the live set and given the recorded churn matches with
   the same comparisons and folds at the same event as the original. *)
let test_restored_churn_folds_alike () =
  let s = schema () in
  let prof = Profile.create_exn s in
  let pset = Profile_set.create s in
  List.iter
    (fun spec -> ignore (Profile_set.add pset (prof spec)))
    [
      [ ("x", Predicate.Ge (Value.Int 5)) ];
      [ ("y", Predicate.Le (Value.Int 3)) ];
      [ ("x", Predicate.Le (Value.Int 2)); ("y", Predicate.Ge (Value.Int 6)) ];
    ];
  let a = Engine.create pset in
  ignore (Engine.add_profile a (prof [ ("y", Predicate.Eq (Value.Int 2)) ]));
  ignore (Engine.remove_profile a 0);
  for i = 0 to 3 do
    ignore (Engine.match_event a (event s i (9 - i)))
  done;
  let churn = Engine.pending_churn a in
  Alcotest.(check (list int)) "delta recorded" [ 3 ] churn.Engine.delta;
  Alcotest.(check (list int)) "dead recorded" [ 0 ]
    (List.map fst churn.Engine.dead);
  Alcotest.(check bool) "rent recorded" true (churn.Engine.rent > 0);
  let copy = Profile_set.create s in
  Profile_set.iter pset (fun id p -> Profile_set.add_with_id copy ~id p);
  let b = Engine.create copy in
  Engine.restore_churn b churn;
  Alcotest.(check int) "same pending" (Engine.pending_rebuild a)
    (Engine.pending_rebuild b);
  let cmp e = (Engine.ops e).Ops.comparisons in
  let i = ref 0 in
  let folded e = Engine.pending_rebuild e = 0 in
  while not (folded a && folded b) do
    let ev = event s (!i mod 10) (!i * 3 mod 10) in
    let ca = cmp a and cb = cmp b in
    Alcotest.(check (list int)) "same matches" (Engine.match_event a ev)
      (Engine.match_event b ev);
    Alcotest.(check int) (Printf.sprintf "same comparisons, event %d" !i)
      (cmp a - ca) (cmp b - cb);
    Alcotest.(check bool) (Printf.sprintf "same fold point, event %d" !i)
      (folded a) (folded b);
    incr i
  done;
  Alcotest.(check bool) "rent carried over" true (!i > 1)

(* A drained window (subscribe, then unsubscribe the same id) leaves
   nothing pending, but the registry moved on: a rebuild absorbs the
   learned history instead of restarting it. *)
let test_rebuild_after_drained_window () =
  let s = schema () in
  let pset = Profile_set.create s in
  ignore (Profile_set.add pset (Profile.create_exn s [ ("x", Predicate.Ge (Value.Int 5)) ]));
  let engine = Engine.create pset in
  for _ = 1 to 20 do
    ignore (Engine.match_event engine (event s 9 9))
  done;
  let id = Engine.add_profile engine (Profile.create_exn s [ ("y", Predicate.Le (Value.Int 3)) ]) in
  ignore (Engine.remove_profile engine id);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_rebuild engine);
  Engine.swap_now engine;
  Alcotest.(check int) "history kept" 20
    (Genas_core.Stats.events_seen (Engine.stats engine))

(* Random interleavings of engine churn, every match entry point,
   rebuilds and spec changes, checked against Naive over the live set:
   ascending ids, and exact event/match counters. *)
let prop_plain_churn_equals_naive =
  QCheck.Test.make ~name:"plain engine under churn = Naive" ~count:60
    (QCheck.make
       QCheck.Gen.(
         Gen.schema ~max_attrs:3 () >>= fun s ->
         list_size (int_range 0 8) (Gen.profile s) >>= fun initial ->
         list_size (int_range 10 60)
           (frequency
              [
                (4, Gen.profile s >|= fun pr -> `Add pr);
                (3, int_bound 1000 >|= fun i -> `Remove i);
                (4, Gen.event s >|= fun e -> `Match e);
                (2, Gen.event s >|= fun e -> `Match_with e);
                (2, Gen.events ~n:5 s >|= fun es -> `Batch es);
                (1, return `Rebuild);
                (1, bool >|= fun b -> `Spec b);
              ])
         >|= fun ops -> (s, initial, ops)))
    (fun (s, initial, ops) ->
      let pset = Profile_set.create s in
      List.iter (fun pr -> ignore (Profile_set.add pset pr)) initial;
      let engine = Engine.create pset in
      let events = ref 0 and matches = ref 0 in
      let naive e =
        let r = Naive.match_event (Naive.build pset) e in
        events := !events + 1;
        matches := !matches + List.length r;
        List.sort Int.compare r
      in
      let pick i =
        match Profile_set.ids pset with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      let ascending l = List.sort_uniq Int.compare l = l in
      let step = function
        | `Add pr -> ignore (Engine.add_profile engine pr); true
        | `Remove i -> (
          match pick i with
          | None -> true
          | Some id -> Engine.remove_profile engine id)
        | `Match e ->
          let got = Engine.match_event engine e in
          ascending got && got = naive e
        | `Match_with e ->
          let got = ref [] in
          Engine.match_with engine e ~f:(fun ~ids ~len ->
              got := Array.to_list (Array.sub ids 0 len));
          ascending !got && !got = naive e
        | `Batch es ->
          let arr = Array.of_list es in
          let got = Engine.match_batch engine arr in
          Array.for_all2
            (fun g e ->
              let g = Array.to_list g in
              ascending g && g = naive e)
            got arr
        | `Rebuild -> Engine.swap_now engine; true
        | `Spec b ->
          Engine.set_spec engine (if b then v1a2 else Reorder.default_spec);
          true
      in
      List.for_all step ops
      && (Engine.ops engine).Ops.events = !events
      && (Engine.ops engine).Ops.matches = !matches)

(* Subscription churn on the paper's 500-profile table never re-plans:
   each subscribe joins the pending delta, each unsubscribe drops it. *)
let test_broker_churn_without_rebuilds () =
  let s = Workload.normalized_schema ~attrs:3 ~points:100 () in
  let gen n seed =
    let axes =
      Array.init 3 (fun i ->
          Genas_model.Axis.of_domain (Schema.attribute s i).Schema.domain)
    in
    Workload.gen_profiles (Genas_prng.Prng.create ~seed) s
      {
        Workload.p = n;
        dontcare = Array.make 3 0.3;
        value_dists = Array.map (fun ax -> Genas_dist.Shape.gauss () ax) axes;
        range_width = None;
      }
  in
  let population = gen 500 1 and fresh = gen 64 2 in
  let reg = Metrics.create () in
  let b = Broker.create ~spec:v1a2 ~metrics:reg s in
  let count = ref 0 in
  Profile_set.iter population (fun i p ->
      ignore
        (Broker.subscribe b ~subscriber:(Printf.sprintf "s%d" i) ~profile:p
           (fun _ -> incr count)));
  Engine.refresh_keeping_history (Broker.engine b);
  let rebuilds = rebuilds_total reg in
  let fresh = Array.of_list (List.map (Profile_set.find_exn fresh) (Profile_set.ids fresh)) in
  let naive = Naive.build population in
  let rng = Genas_prng.Prng.create ~seed:3 in
  let ev () =
    Event.of_values_exn s
      (Array.init 3 (fun _ -> Value.Int (Genas_prng.Prng.int rng ~bound:100)))
  in
  for c = 0 to 999 do
    let prof = fresh.(c mod Array.length fresh) in
    let e = ev () in
    let want = List.length (Naive.match_event naive e) in
    let sub = Broker.subscribe b ~subscriber:"churn" ~profile:prof (fun _ -> ()) in
    let extra = Bool.to_int (Profile.matches s prof e) in
    Alcotest.(check int) "publish with one pending" (want + extra) (Broker.publish b e);
    Alcotest.(check bool) "unsubscribe" true (Broker.unsubscribe b sub);
    Alcotest.(check int) "publish with nothing pending" want (Broker.publish b e)
  done;
  Alcotest.(check int) "no rebuild per churn" rebuilds (rebuilds_total reg);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_rebuild (Broker.engine b))

let () =
  Alcotest.run "engine"
    [
      ( "engine",
        [
          Alcotest.test_case "matching" `Quick test_basic_matching;
          Alcotest.test_case "edit outside the engine refused" `Quick
            test_refuses_edit_outside;
          Alcotest.test_case "ops + observation" `Quick test_ops_accumulate_and_observe;
          Alcotest.test_case "set_spec" `Quick test_set_spec_rebuilds;
          Alcotest.test_case "rebuild keeps history" `Quick
            test_rebuild_keeps_observations;
          Alcotest.test_case "analytic report" `Quick test_report_reflects_tree;
          Alcotest.test_case "auto/hashed specs" `Quick test_auto_and_hashed_specs;
        ] );
      ( "churn",
        [
          Alcotest.test_case "churn joins pending" `Quick test_churn_joins_pending;
          Alcotest.test_case "rent restarts per window" `Quick
            test_rent_restarts_per_window;
          Alcotest.test_case "restored churn folds alike" `Quick
            test_restored_churn_folds_alike;
          Alcotest.test_case "rebuild after a drained window" `Quick
            test_rebuild_after_drained_window;
          Alcotest.test_case "1000 broker churns, no rebuild" `Quick
            test_broker_churn_without_rebuilds;
          QCheck_alcotest.to_alcotest prop_plain_churn_equals_naive;
        ] );
    ]
