(* The profile tree: construction, determinism, sharing, and semantic
   agreement with the naive oracle under every strategy. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Decomp = Genas_filter.Decomp
module Tree = Genas_filter.Tree
module Order = Genas_filter.Order
module Naive = Genas_filter.Naive
module Ops = Genas_filter.Ops
module Gen = Genas_testlib.Gen
module Prng = Genas_prng.Prng
module Stats = Genas_core.Stats
module Reorder = Genas_core.Reorder
module Perfbench = Genas_expt.Perfbench

let schema2 () =
  Schema.create_exn
    [ ("x", Domain.int_range ~lo:0 ~hi:9); ("y", Domain.int_range ~lo:0 ~hi:9) ]

let pset_of schema specs =
  let pset = Profile_set.create schema in
  List.iter
    (fun tests -> ignore (Profile_set.add pset (Profile.create_exn schema tests)))
    specs;
  pset

let test_empty_tree () =
  let s = schema2 () in
  let pset = Profile_set.create s in
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  Alcotest.(check bool) "no root" true (tree.Tree.root = None);
  let e = Event.create_exn s [ ("x", Value.Int 1); ("y", Value.Int 2) ] in
  Alcotest.(check (list int)) "no matches" [] (Tree.match_event tree e)

let test_dont_care_only () =
  let s = schema2 () in
  let pset = pset_of s [ [] ] in
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  let ops = Ops.create () in
  let e = Event.create_exn s [ ("x", Value.Int 1); ("y", Value.Int 2) ] in
  Alcotest.(check (list int)) "matches everything" [ 0 ]
    (Tree.match_event ~ops tree e);
  (* Star-only nodes cost no comparisons. *)
  Alcotest.(check int) "zero comparisons" 0 ops.Ops.comparisons

let test_config_validation () =
  let s = schema2 () in
  let d = Decomp.build (pset_of s [ [ ("x", Predicate.Eq (Value.Int 1)) ] ]) in
  let strategies = Array.make 2 (Order.Linear Order.Natural_asc) in
  Alcotest.check_raises "non-permutation"
    (Invalid_argument "Tree.build: attr_order is not a permutation") (fun () ->
      ignore (Tree.build d { Tree.attr_order = [| 0; 0 |]; strategies }));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Tree.build: attr_order length mismatch") (fun () ->
      ignore (Tree.build d { Tree.attr_order = [| 0 |]; strategies }))

let test_duplicated_dont_care_profiles () =
  (* A profile with a don't-care on x must be found under every x-edge
     (DFSA determinization): single path still sees it. *)
  let s = schema2 () in
  let pset =
    pset_of s
      [
        [ ("x", Predicate.Eq (Value.Int 1)); ("y", Predicate.Eq (Value.Int 1)) ];
        [ ("y", Predicate.Eq (Value.Int 1)) ];
      ]
  in
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  let e xv =
    Event.create_exn s [ ("x", Value.Int xv); ("y", Value.Int 1) ]
  in
  Alcotest.(check (list int)) "on the listed edge" [ 0; 1 ]
    (Tree.match_event tree (e 1));
  Alcotest.(check (list int)) "on the rest edge" [ 1 ]
    (Tree.match_event tree (e 5))

let test_sharing_smaller () =
  let g = QCheck.Gen.generate1 (Gen.scenario ~max_attrs:3 ~max_p:15 ()) in
  let _, pset, _ = g in
  let d = Decomp.build pset in
  let cfg = Tree.default_config d in
  let shared = Tree.build ~share:true d cfg in
  let unshared = Tree.build ~share:false d cfg in
  Alcotest.(check bool) "not larger" true
    (shared.Tree.stats.Tree.nodes <= unshared.Tree.stats.Tree.nodes);
  (* Memo hits stop the recursion, so sharing can only reduce the
     construction visits. *)
  Alcotest.(check bool) "visits not larger" true
    (shared.Tree.stats.Tree.build_visits <= unshared.Tree.stats.Tree.build_visits)

(* The 500-profile paper table the bench times, at its default seed:
   any change to the builder must reproduce this tree exactly. *)
let test_paper_table_shape () =
  let pset = Perfbench.paper_profiles (Prng.create ~seed:99) in
  let stats = Stats.create (Decomp.build pset) in
  let shape share =
    let s = (Reorder.build ~share stats Perfbench.v1a2).Tree.stats in
    [ s.Tree.nodes; s.leaves; s.edges; s.build_visits ]
  in
  Alcotest.(check (list int)) "shared" [ 3498; 27061; 89036; 91723 ]
    (shape true);
  Alcotest.(check (list int)) "unshared" [ 4294; 106777; 108053; 111071 ]
    (shape false)

(* Walking the tree, every reached node's construction id is in range
   and owned by exactly one physical node, and every id is reached. *)
let prop_construction_ids =
  QCheck.Test.make ~name:"construction ids dense and unique per shared node"
    ~count:60
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:15 ()))
    (fun (_, pset, _) ->
      let d = Decomp.build pset in
      List.for_all
        (fun share ->
          let tree = Tree.build ~share d (Tree.default_config d) in
          let n = tree.Tree.stats.Tree.nodes + tree.Tree.stats.Tree.leaves in
          let owner = Array.make n None in
          let rec walk node =
            let id = Tree.id node in
            id >= 0 && id < n
            &&
            match owner.(id) with
            | Some o -> o == node
            | None -> (
              owner.(id) <- Some node;
              match node with
              | Tree.Leaf _ -> true
              | Tree.Node { children; rest; _ } ->
                Array.for_all walk children
                && Option.fold ~none:true ~some:walk rest)
          in
          Option.fold ~none:true ~some:walk tree.Tree.root
          && Array.for_all Option.is_some owner)
        [ true; false ])

let all_strategy_choices =
  [
    ("natural", Order.Linear Order.Natural_asc);
    ("natural desc", Order.Linear Order.Natural_desc);
    ("binary", Order.Binary);
    ("hashed", Order.Hashed);
  ]

let check_against_naive ?(n_events = 40) (s, pset, events) =
  let d = Decomp.build pset in
  let naive = Naive.build pset in
  ignore n_events;
  List.iter
    (fun (label, strat) ->
      let n = Schema.arity s in
      let cfg =
        {
          Tree.attr_order = Array.init n (fun i -> n - 1 - i);
          strategies = Array.make n strat;
        }
      in
      let tree = Tree.build d cfg in
      let tree_unshared = Tree.build ~share:false d cfg in
      List.iter
        (fun e ->
          let expect = Naive.match_event naive e in
          let got = Tree.match_event tree e in
          if got <> expect then
            Alcotest.failf "%s: tree %s vs naive %s" label
              (String.concat "," (List.map string_of_int got))
              (String.concat "," (List.map string_of_int expect));
          if Tree.match_event tree_unshared e <> expect then
            Alcotest.failf "%s: unshared tree disagrees" label)
        events)
    all_strategy_choices

let prop_tree_agrees_with_naive =
  QCheck.Test.make ~name:"tree = naive oracle (all strategies, reversed attr order)"
    ~count:60
    (QCheck.make (Gen.scenario ~max_attrs:4 ~max_p:15 ~n_events:30 ()))
    (fun scenario ->
      check_against_naive scenario;
      true)

let prop_key_order_agrees_with_naive =
  QCheck.Test.make ~name:"tree with random key order = naive oracle" ~count:40
    (QCheck.make
       QCheck.Gen.(
         Gen.scenario ~max_attrs:3 ~max_p:12 ~n_events:25 () >>= fun (s, pset, es) ->
         int_bound 1000 >|= fun salt -> (s, pset, es, salt)))
    (fun (s, pset, events, salt) ->
      let d = Decomp.build pset in
      let naive = Naive.build pset in
      let n = Schema.arity s in
      (* Pseudo-random per-cell keys: exercises By_key_desc orders with
         D0 half-ranks. *)
      let strategies =
        Array.init n (fun attr ->
            let ncells =
              Array.length d.Decomp.overlays.(attr).Genas_interval.Overlay.cells
            in
            Order.Linear
              (Order.By_key_desc
                 (Array.init ncells (fun c ->
                      float_of_int (((c + salt) * 2654435761) land 0xFFFF)))))
      in
      let tree = Tree.build d { Tree.attr_order = Array.init n Fun.id; strategies } in
      List.for_all
        (fun e -> Tree.match_event tree e = Naive.match_event naive e)
        events)

let prop_ops_counted =
  QCheck.Test.make ~name:"ops counters are consistent" ~count:50
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:10 ~n_events:20 ()))
    (fun (_, pset, events) ->
      let d = Decomp.build pset in
      let tree = Tree.build d (Tree.default_config d) in
      let ops = Ops.create () in
      let total_matches =
        List.fold_left
          (fun acc e -> acc + List.length (Tree.match_event ~ops tree e))
          0 events
      in
      ops.Ops.events = List.length events
      && ops.Ops.matches = total_matches
      && ops.Ops.comparisons >= 0
      && ops.Ops.node_visits >= ops.Ops.events)

let test_match_coords_equals_match_event () =
  let s = schema2 () in
  let pset =
    pset_of s
      [
        [ ("x", Predicate.Between { lo = Value.Int 2; lo_closed = true;
                                    hi = Value.Int 7; hi_closed = false }) ];
        [ ("y", Predicate.Ge (Value.Int 5)) ];
      ]
  in
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  for x = 0 to 9 do
    for y = 0 to 9 do
      let e = Event.create_exn s [ ("x", Value.Int x); ("y", Value.Int y) ] in
      Alcotest.(check (list int))
        (Printf.sprintf "(%d,%d)" x y)
        (Tree.match_event tree e)
        (Tree.match_coords tree [| float_of_int x; float_of_int y |])
    done
  done

let test_blowup_guard () =
  (* A wide boolean schema with sparse conjunctions — the SIFT shape —
     must abort cleanly under max_visits rather than hang. *)
  let s =
    Schema.create_exn
      (List.init 16 (fun i -> (Printf.sprintf "w%d" i, Domain.bool_dom)))
  in
  let pset = Profile_set.create s in
  let rng = Genas_prng.Prng.create ~seed:5 in
  for _ = 1 to 30 do
    let a = Genas_prng.Prng.int rng ~bound:16 in
    let b = (a + 1 + Genas_prng.Prng.int rng ~bound:15) mod 16 in
    ignore
      (Profile_set.add pset
         (Profile.create_exn s
            [
              (Printf.sprintf "w%d" a, Predicate.Eq (Value.Bool true));
              (Printf.sprintf "w%d" b, Predicate.Eq (Value.Bool true));
            ]))
  done;
  let d = Decomp.build pset in
  match Tree.build ~max_visits:5_000 d (Tree.default_config d) with
  | _ -> Alcotest.fail "expected Construction_blowup"
  | exception Tree.Construction_blowup limit ->
    Alcotest.(check int) "limit reported" 5_000 limit

let test_scale_stress () =
  (* 800 mixed equality/range profiles, 3 attributes: the tree must
     stay correct (vs naive) and bounded in size. *)
  let module Workload = Genas_expt.Workload in
  let module Shape = Genas_dist.Shape in
  let module Axis = Genas_model.Axis in
  let schema = Workload.normalized_schema ~attrs:3 ~points:100 () in
  let axes =
    Array.init 3 (fun i -> Axis.of_domain (Schema.attribute schema i).Schema.domain)
  in
  let rng = Genas_prng.Prng.create ~seed:1234 in
  let pset =
    Workload.gen_profiles rng schema
      {
        Workload.p = 800;
        dontcare = [| 0.3; 0.3; 0.3 |];
        value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
        range_width = Some 0.05;
      }
  in
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  let naive = Naive.build pset in
  for _ = 1 to 200 do
    let coords =
      Array.map (fun _ -> float_of_int (Genas_prng.Prng.int_in rng ~lo:0 ~hi:99)) axes
    in
    let event =
      Genas_model.Event.of_values_exn schema
        (Array.mapi
           (fun i c -> Axis.value (Schema.attribute schema i).Schema.domain c)
           coords)
    in
    if Tree.match_event tree event <> Naive.match_event naive event then
      Alcotest.fail "tree disagrees with naive at scale"
  done;
  Alcotest.(check bool) "hash-consing keeps the DFSA bounded" true
    (tree.Tree.stats.Tree.nodes < 200_000)

let test_pp_renders_fig1_style () =
  let s = schema2 () in
  let pset =
    pset_of s
      [
        [ ("x", Predicate.Ge (Value.Int 5)); ("y", Predicate.Eq (Value.Int 1)) ];
        [ ("y", Predicate.Eq (Value.Int 1)) ];
      ]
  in
  let d = Decomp.build pset in
  let tree = Tree.build d (Tree.default_config d) in
  let rendered = Format.asprintf "%a" Tree.pp tree in
  let expected =
    String.concat "\n"
      [
        "x [5,9]";
        "  y {1}";
        "    -> {0,1}";
        "x (*)";
        "  y {1}";
        "    -> {1}";
        "";
      ]
  in
  Alcotest.(check string) "rendering" expected rendered;
  let empty_pset = Profile_set.create s in
  let ed = Decomp.build empty_pset in
  Alcotest.(check string) "empty" "(empty tree)"
    (Format.asprintf "%a" Tree.pp (Tree.build ed (Tree.default_config ed)))

let () =
  Alcotest.run "tree"
    [
      ( "structure",
        [
          Alcotest.test_case "empty" `Quick test_empty_tree;
          Alcotest.test_case "don't-care only" `Quick test_dont_care_only;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "determinized don't-cares" `Quick
            test_duplicated_dont_care_profiles;
          Alcotest.test_case "sharing shrinks" `Quick test_sharing_smaller;
          Alcotest.test_case "paper table shape" `Quick test_paper_table_shape;
          Alcotest.test_case "coords vs events" `Quick
            test_match_coords_equals_match_event;
          Alcotest.test_case "fig-1 style rendering" `Quick
            test_pp_renders_fig1_style;
          Alcotest.test_case "scale stress (800 profiles)" `Slow test_scale_stress;
          Alcotest.test_case "blowup guard" `Quick test_blowup_guard;
        ] );
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_tree_agrees_with_naive; prop_key_order_agrees_with_naive;
            prop_ops_counted; prop_construction_ids;
          ] );
    ]
