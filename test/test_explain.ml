(* Match tracing: the explanation must reproduce the matcher's result
   and its operation count exactly. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Decomp = Genas_filter.Decomp
module Tree = Genas_filter.Tree
module Ops = Genas_filter.Ops
module Explain = Genas_core.Explain
module Gen = Genas_testlib.Gen

let test_trace_structure () =
  let s =
    Schema.create_exn
      [ ("x", Domain.int_range ~lo:0 ~hi:9); ("y", Domain.int_range ~lo:0 ~hi:9) ]
  in
  let pset = Profile_set.create s in
  ignore
    (Profile_set.add pset
       (Profile.create_exn s
          [ ("x", Predicate.Ge (Value.Int 5)); ("y", Predicate.Le (Value.Int 3)) ]));
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  (* A matching event: two levels, both edges. *)
  let t = Explain.trace tree (Event.create_exn s [ ("x", Value.Int 7); ("y", Value.Int 2) ]) in
  Alcotest.(check int) "two steps" 2 (List.length t.Explain.steps);
  Alcotest.(check (list int)) "matched" [ 0 ] t.Explain.matched;
  List.iter
    (fun (st : Explain.step) ->
      match st.Explain.outcome with
      | `Edge _ -> ()
      | `Rest | `Reject -> Alcotest.fail "expected edge steps")
    t.Explain.steps;
  (* Rejected at the first level. *)
  let r = Explain.trace tree (Event.create_exn s [ ("x", Value.Int 1); ("y", Value.Int 2) ]) in
  Alcotest.(check int) "one step" 1 (List.length r.Explain.steps);
  Alcotest.(check (list int)) "no match" [] r.Explain.matched;
  (match (List.hd r.Explain.steps).Explain.outcome with
  | `Reject -> ()
  | `Edge _ | `Rest -> Alcotest.fail "expected rejection");
  (* A match ends at a leaf; a rejection reaches none. *)
  Alcotest.(check bool) "leaf reached" true (t.Explain.leaf <> None);
  Alcotest.(check (option int)) "no leaf on rejection" None r.Explain.leaf;
  (* The rendering labels each step with its value's subrange. *)
  let out = Format.asprintf "%a" (Explain.pp tree) t in
  Alcotest.(check string) "pp"
    "level 0: x            value in [5,9]        linear:natural over 1 \
     edge(s): 1 comparison(s) -> edge\n\
     level 1: y            value in [0,3]        linear:natural over 1 \
     edge(s): 1 comparison(s) -> edge\n\
     matched profiles: 0 (2 comparisons total)"
    out

let prop_trace_agrees_with_matcher =
  QCheck.Test.make ~name:"trace = match_event (result and cost)" ~count:60
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:12 ~n_events:20 ()))
    (fun (_, pset, events) ->
      let d = Decomp.build pset in
      let tree = Tree.build d (Tree.default_config d) in
      List.for_all
        (fun e ->
          let ops = Ops.create () in
          let matched = Tree.match_event ~ops tree e in
          let t = Explain.trace tree e in
          t.Explain.matched = matched
          && t.Explain.total_comparisons = ops.Ops.comparisons
          && t.Explain.total_comparisons
             = List.fold_left
                 (fun acc (s : Explain.step) -> acc + s.Explain.comparisons)
                 0 t.Explain.steps)
        events)

let () =
  Alcotest.run "explain"
    [
      ( "explain",
        [
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
          QCheck_alcotest.to_alcotest prop_trace_agrees_with_matcher;
        ] );
    ]
