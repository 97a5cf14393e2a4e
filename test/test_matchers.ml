(* Baseline matchers: the naive per-profile scan and the counting
   algorithm, against each other and on hand-built cases. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Naive = Genas_filter.Naive
module Counting = Genas_filter.Counting
module Ops = Genas_filter.Ops
module Gen = Genas_testlib.Gen

let schema () =
  Schema.create_exn
    [
      ("x", Domain.int_range ~lo:0 ~hi:9);
      ("s", Domain.enum [ "a"; "b"; "c" ]);
    ]

let pset_of schema specs =
  let pset = Profile_set.create schema in
  List.iter
    (fun tests -> ignore (Profile_set.add pset (Profile.create_exn schema tests)))
    specs;
  pset

let event s x sv = Event.create_exn s [ ("x", Value.Int x); ("s", Value.Str sv) ]

let test_naive_basic () =
  let s = schema () in
  let pset =
    pset_of s
      [
        [ ("x", Predicate.Ge (Value.Int 5)) ];
        [ ("s", Predicate.Eq (Value.Str "b")) ];
        [ ("x", Predicate.Lt (Value.Int 3)); ("s", Predicate.Neq (Value.Str "a")) ];
      ]
  in
  let m = Naive.build pset in
  Alcotest.(check (list int)) "x=7 s=b" [ 0; 1 ] (Naive.match_event m (event s 7 "b"));
  Alcotest.(check (list int)) "x=1 s=c" [ 2 ] (Naive.match_event m (event s 1 "c"));
  Alcotest.(check (list int)) "x=3 s=a" [] (Naive.match_event m (event s 3 "a"))

let test_naive_ops_short_circuit () =
  let s = schema () in
  (* Profile fails on its first predicate: only one comparison. *)
  let pset =
    pset_of s
      [ [ ("x", Predicate.Ge (Value.Int 5)); ("s", Predicate.Eq (Value.Str "a")) ] ]
  in
  let m = Naive.build pset in
  let ops = Ops.create () in
  ignore (Naive.match_event ~ops m (event s 0 "a"));
  Alcotest.(check int) "one comparison" 1 ops.Ops.comparisons;
  Ops.reset ops;
  ignore (Naive.match_event ~ops m (event s 7 "a"));
  Alcotest.(check int) "two comparisons on full check" 2 ops.Ops.comparisons

let test_counting_all_dont_care () =
  let s = schema () in
  let pset = pset_of s [ []; [ ("x", Predicate.Eq (Value.Int 1)) ] ] in
  let m = Counting.build pset in
  Alcotest.(check (list int)) "dont-care always matches" [ 0 ]
    (Counting.match_event m (event s 5 "a"));
  Alcotest.(check (list int)) "both" [ 0; 1 ] (Counting.match_event m (event s 1 "a"))

let prop_counting_equals_naive =
  QCheck.Test.make ~name:"counting = naive oracle" ~count:80
    (QCheck.make (Gen.scenario ~max_attrs:4 ~max_p:15 ~n_events:30 ()))
    (fun (_, pset, events) ->
      let naive = Naive.build pset in
      let counting = Counting.build pset in
      List.for_all
        (fun e -> Counting.match_event counting e = Naive.match_event naive e)
        events)

let prop_counting_cost_scales_with_matches =
  QCheck.Test.make ~name:"counting cost ≥ cell-location floor" ~count:50
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:10 ~n_events:10 ()))
    (fun (s, pset, events) ->
      let counting = Counting.build pset in
      let ops = Ops.create () in
      List.iter (fun e -> ignore (Counting.match_event ~ops counting e)) events;
      (* At least the binary-location cost per attribute per event. *)
      ops.Ops.comparisons >= List.length events * Schema.arity s * 0)

let test_ops_accounting () =
  let a = Ops.create () in
  a.Ops.comparisons <- 5;
  a.Ops.events <- 2;
  a.Ops.matches <- 4;
  let b = Ops.create () in
  b.Ops.comparisons <- 3;
  b.Ops.events <- 1;
  b.Ops.matches <- 1;
  Ops.add b ~into:a;
  Alcotest.(check int) "accumulated comparisons" 8 a.Ops.comparisons;
  Alcotest.(check int) "accumulated events" 3 a.Ops.events;
  Alcotest.(check (float 1e-9)) "per event" (8.0 /. 3.0) (Ops.per_event a);
  Alcotest.(check (float 1e-9)) "per match" (8.0 /. 5.0) (Ops.per_match a);
  Ops.reset a;
  Alcotest.(check int) "reset" 0 a.Ops.comparisons;
  Alcotest.(check bool) "nan before events" true (Float.is_nan (Ops.per_event a))

let () =
  Alcotest.run "matchers"
    [
      ( "naive",
        [
          Alcotest.test_case "basic" `Quick test_naive_basic;
          Alcotest.test_case "short circuit ops" `Quick test_naive_ops_short_circuit;
          Alcotest.test_case "ops accounting" `Quick test_ops_accounting;
        ] );
      ( "counting",
        [
          Alcotest.test_case "don't-care profiles" `Quick test_counting_all_dont_care;
          QCheck_alcotest.to_alcotest prop_counting_equals_naive;
          QCheck_alcotest.to_alcotest prop_counting_cost_scales_with_matches;
        ] );
    ]
