(* Edge cases and guard rails across the API surface. *)

module Prng = Genas_prng.Prng
module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Axis = Genas_model.Axis
module Interval = Genas_interval.Interval
module Iset = Genas_interval.Iset
module Dist = Genas_dist.Dist
module Shape = Genas_dist.Shape
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Decomp = Genas_filter.Decomp
module Tree = Genas_filter.Tree
module Notification = Genas_ens.Notification
module Workload = Genas_expt.Workload
module Simulate = Genas_expt.Simulate
module Gen = Genas_testlib.Gen

let test_axis_guards () =
  Alcotest.check_raises "non-integer discrete bounds"
    (Invalid_argument "Axis.make: discrete axis needs integer bounds")
    (fun () -> ignore (Axis.make ~discrete:true ~lo:0.5 ~hi:2.0));
  Alcotest.check_raises "inverted"
    (Invalid_argument "Axis.make: hi < lo") (fun () ->
      ignore (Axis.make ~discrete:false ~lo:1.0 ~hi:0.0));
  (* Discrete bounds must lie strictly inside ±2^53, as an int range's
     do; a continuous axis may reach further. *)
  let exact = 0x1p53 in
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "discrete [%g, %g]" lo hi)
        (Invalid_argument "Axis.make: discrete bounds outside (-2^53, 2^53)")
        (fun () -> ignore (Axis.make ~discrete:true ~lo ~hi)))
    [ (0.0, exact); (-.exact, 0.0); (1.7e18, 1.7e18 +. 1024.0) ];
  ignore (Axis.make ~discrete:true ~lo:(1.0 -. exact) ~hi:(exact -. 1.0));
  ignore (Axis.make ~discrete:false ~lo:0.0 ~hi:exact);
  (* Degenerate single-point axis is legal. *)
  let a = Axis.make ~discrete:true ~lo:3.0 ~hi:3.0 in
  Alcotest.(check (float 1e-9)) "singleton size" 1.0 (Axis.size a)

let test_single_point_domain_end_to_end () =
  (* A domain with one value still decomposes, matches, and evaluates. *)
  let schema = Schema.create_exn [ ("x", Domain.int_range ~lo:7 ~hi:7) ] in
  let pset = Profile_set.create schema in
  ignore
    (Profile_set.add pset
       (Profile.create_exn schema [ ("x", Predicate.Eq (Value.Int 7)) ]));
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  Alcotest.(check (list int)) "matches" [ 0 ] (Tree.match_coords tree [| 7.0 |]);
  let probs = Dist.cell_probs (Dist.uniform d.Decomp.axes.(0)) d.Decomp.overlays.(0) in
  Alcotest.(check int) "single cell" 1 (Array.length probs);
  Alcotest.(check (float 1e-9)) "all mass" 1.0 probs.(0)

let test_schema_attribute_out_of_range () =
  let s = Schema.create_exn [ ("x", Domain.bool_dom) ] in
  Alcotest.check_raises "negative"
    (Invalid_argument "Schema.attribute: index -1 out of range") (fun () ->
      ignore (Schema.attribute s (-1)));
  Alcotest.check_raises "too large"
    (Invalid_argument "Schema.attribute: index 1 out of range") (fun () ->
      ignore (Schema.attribute s 1))

let test_event_of_values_arity () =
  let s = Schema.create_exn [ ("x", Domain.bool_dom); ("y", Domain.bool_dom) ] in
  match Event.of_values s [| Value.Bool true |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity mismatch accepted"

let test_boundary_values_match () =
  (* Domain boundaries participate in predicates and events. *)
  let s = Schema.create_exn [ ("x", Domain.float_range ~lo:(-1.0) ~hi:1.0) ] in
  let p = Profile.create_exn s [ ("x", Predicate.Le (Value.Float (-1.0))) ] in
  let e = Event.create_exn s [ ("x", Value.Float (-1.0)) ] in
  Alcotest.(check bool) "lower boundary" true (Profile.matches s p e);
  let q = Profile.create_exn s [ ("x", Predicate.Ge (Value.Float 1.0)) ] in
  let e2 = Event.create_exn s [ ("x", Value.Float 1.0) ] in
  Alcotest.(check bool) "upper boundary" true (Profile.matches s q e2)

let test_neq_on_boundary () =
  let s = Schema.create_exn [ ("x", Domain.int_range ~lo:0 ~hi:3) ] in
  let p = Profile.create_exn s [ ("x", Predicate.Neq (Value.Int 0)) ] in
  let pset = Profile_set.create s in
  ignore (Profile_set.add pset p);
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  Alcotest.(check (list int)) "0 excluded" [] (Tree.match_coords tree [| 0.0 |]);
  Alcotest.(check (list int)) "1 included" [ 0 ] (Tree.match_coords tree [| 1.0 |]);
  Alcotest.(check (list int)) "3 included" [ 0 ] (Tree.match_coords tree [| 3.0 |])

let test_notification_pp () =
  let s = Schema.create_exn [ ("x", Domain.bool_dom) ] in
  let e = Event.create_exn s [ ("x", Value.Bool true) ] in
  let n =
    Notification.make ~broker:2 ~event:e
      ~origin:(Notification.Primitive 5) ~subscriber:"ada" ()
  in
  let out = Format.asprintf "%a" (Notification.pp s) n in
  Alcotest.(check bool) "mentions subscriber" true
    (String.length out > 0
    && Option.is_some
         (String.index_opt out 'a'));
  Alcotest.(check bool) "mentions broker" true
    (let rec contains i =
       i + 8 <= String.length out
       && (String.sub out i 8 = "broker 2" || contains (i + 1))
     in
     contains 0)

let test_simulate_precision_monotone () =
  (* A stricter precision target needs at least as many events. *)
  let schema = Workload.normalized_schema ~attrs:1 ~points:50 () in
  let axis = Axis.of_domain (Schema.attribute schema 0).Schema.domain in
  let rng = Prng.create ~seed:5 in
  let pset =
    Workload.gen_profiles rng schema
      {
        Workload.p = 20;
        dontcare = [| 0.0 |];
        value_dists = [| Shape.gauss () axis |];
        range_width = None;
      }
  in
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  let run precision =
    (Simulate.run ~precision (Prng.create ~seed:6) tree [| Dist.uniform axis |])
      .Simulate.events
  in
  Alcotest.(check bool) "monotone" true (run 0.01 >= run 0.10)

let test_workload_dists_of_names_errors () =
  let schema = Workload.normalized_schema ~attrs:2 ~points:10 () in
  Alcotest.check_raises "arity"
    (Invalid_argument "Workload.dists_of_names: arity mismatch") (fun () ->
      ignore (Workload.dists_of_names schema [ "equal" ]));
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Catalog.find_exn: unknown distribution \"zzz\"")
    (fun () -> ignore (Workload.dists_of_names schema [ "equal"; "zzz" ]))

let prop_normalize_discrete_membership =
  QCheck.Test.make ~name:"normalize_discrete preserves integer membership"
    ~count:300
    (QCheck.make (Gen.iset ~lo:(-10.0) ~hi:10.0))
    (fun s ->
      let n = Iset.normalize_discrete s in
      List.for_all
        (fun i ->
          let x = float_of_int i in
          Iset.mem s x = Iset.mem n x)
        (List.init 21 (fun i -> i - 10)))

let prop_interval_hull_contains =
  QCheck.Test.make ~name:"hull contains both operands" ~count:300
    (QCheck.make
       QCheck.Gen.(
         Gen.interval ~lo:0.0 ~hi:10.0 >>= fun a ->
         Gen.interval ~lo:0.0 ~hi:10.0 >|= fun b -> (a, b)))
    (fun (a, b) ->
      let h = Interval.hull a b in
      Interval.subset a h && Interval.subset b h)

let () =
  Alcotest.run "edges"
    [
      ( "guards",
        [
          Alcotest.test_case "axis" `Quick test_axis_guards;
          Alcotest.test_case "schema index" `Quick test_schema_attribute_out_of_range;
          Alcotest.test_case "event arity" `Quick test_event_of_values_arity;
          Alcotest.test_case "workload names" `Quick test_workload_dists_of_names_errors;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "single-point domain" `Quick
            test_single_point_domain_end_to_end;
          Alcotest.test_case "domain boundaries" `Quick test_boundary_values_match;
          Alcotest.test_case "neq at boundary" `Quick test_neq_on_boundary;
          Alcotest.test_case "notification pp" `Quick test_notification_pp;
          Alcotest.test_case "simulation precision" `Quick
            test_simulate_precision_monotone;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_normalize_discrete_membership; prop_interval_hull_contains ] );
    ]
