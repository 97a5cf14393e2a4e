(* Differential fuzz suite for the compiled flat-array matcher: the
   flat form must return the exact match sets of the pointer tree, the
   naive oracle, and the counting matcher, with comparison/node-visit
   counters bit-identical to the tree — the paper's figures must not
   move when the engine executes the compiled form. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Image = Genas_model.Image
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Decomp = Genas_filter.Decomp
module Tree = Genas_filter.Tree
module Flat = Genas_filter.Flat
module Naive = Genas_filter.Naive
module Counting = Genas_filter.Counting
module Ops = Genas_filter.Ops
module Stats = Genas_core.Stats
module Selectivity = Genas_core.Selectivity
module Reorder = Genas_core.Reorder
module Engine = Genas_core.Engine
module Gen = Genas_testlib.Gen
module Prng = Genas_prng.Prng
module Perfbench = Genas_expt.Perfbench

(* Every value-strategy family the reorderer can emit, so the flat
   scan's linear, binary, and hashed branches are all exercised. *)
let specs =
  [
    ("natural", { Reorder.attr_choice = Reorder.Attr_natural;
                  value_choice = `Measure Selectivity.V_natural_asc });
    ("v1+a2", { Reorder.attr_choice =
                  Reorder.Attr_measured (Selectivity.A2, `Descending);
                value_choice = `Measure Selectivity.V1 });
    ("binary", { Reorder.attr_choice = Reorder.Attr_natural;
                 value_choice = `Binary });
    ("hashed", { Reorder.attr_choice = Reorder.Attr_natural;
                 value_choice = `Hashed });
  ]

let trees_of pset =
  let stats = Stats.create (Decomp.build pset) in
  List.map (fun (name, spec) -> (name, Reorder.build stats spec)) specs

let ops_eq a b =
  a.Ops.comparisons = b.Ops.comparisons
  && a.Ops.node_visits = b.Ops.node_visits
  && a.Ops.events = b.Ops.events
  && a.Ops.matches = b.Ops.matches

(* The matched ids of one event, ascending: [Tree.match_event]'s list.
   With [image], the event is resolved into it first and matched
   through it, as the engine does. *)
let match_list ?ops ?image flat cur e =
  Option.iter (fun img -> Image.resolve img e) image;
  let n = Flat.match_into ?ops ?image flat cur e in
  Array.to_list (Array.sub (Flat.matches cur) 0 n)

let check_tree_vs_flat ~name tree events =
  let flat = Flat.compile tree in
  let cur = Flat.cursor flat in
  let image = Image.create tree.Tree.decomp.Decomp.schema in
  let tree_ops = Ops.create () and flat_ops = Ops.create () in
  List.for_all
    (fun e ->
      let expect = Tree.match_event ~ops:tree_ops tree e in
      let got = match_list ~ops:flat_ops ~image flat cur e in
      if got <> expect then
        QCheck.Test.fail_reportf "%s: flat %s <> tree %s" name
          (String.concat "," (List.map string_of_int got))
          (String.concat "," (List.map string_of_int expect))
      else if not (ops_eq tree_ops flat_ops) then
        QCheck.Test.fail_reportf "%s: ops drift: tree %a, flat %a" name Ops.pp
          tree_ops Ops.pp flat_ops
      else true)
    events

let prop_flat_equals_tree =
  QCheck.Test.make ~name:"flat = tree (matches and ops), all strategies"
    ~count:60
    (QCheck.make (Gen.scenario ~max_attrs:4 ~max_p:15 ~n_events:30 ()))
    (fun (_, pset, events) ->
      List.for_all
        (fun (name, tree) -> check_tree_vs_flat ~name tree events)
        (trees_of pset))

let prop_flat_equals_baselines =
  QCheck.Test.make ~name:"flat = naive = counting match sets" ~count:60
    (QCheck.make (Gen.scenario ~max_attrs:4 ~max_p:15 ~n_events:30 ()))
    (fun (_, pset, events) ->
      let naive = Naive.build pset in
      let counting = Counting.build pset in
      let stats = Stats.create (Decomp.build pset) in
      let flat = Flat.compile (Reorder.build stats Reorder.default_spec) in
      let cur = Flat.cursor flat in
      List.for_all
        (fun e ->
          let oracle = Naive.match_event naive e in
          match_list flat cur e = oracle
          && Counting.match_event counting e = oracle)
        events)

(* A batch is exactly a sequence of [match_with] calls: after every
   batch, a twin engine driven event by event agrees on the ids, the
   operation counters, the statistics and the pending churn. Churn
   lands between batches on both twins, so plain engines carry pending
   churn whose rent crosses the fold limit mid-batch; aggregated
   engines take the same steps. *)
let prop_engine_batch_equals_match_event =
  QCheck.Test.make ~name:"Engine.match_batch = Engine.match_event loop"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         Gen.schema ~max_attrs:3 () >>= fun s ->
         bool >>= fun aggregate ->
         list_size (int_range 1 10) (Gen.profile s) >>= fun initial ->
         list_size (int_range 1 6)
           (triple
              (list_size (int_range 0 4) (Gen.profile s))
              (list_size (int_range 0 2) (int_bound 100))
              (Gen.events ~n:12 s))
         >|= fun steps -> (s, aggregate, initial, steps)))
    (fun (s, aggregate, initial, steps) ->
      let twin () =
        let pset = Profile_set.create s in
        List.iter (fun pr -> ignore (Profile_set.add pset pr)) initial;
        (pset, Engine.create ~aggregate pset)
      in
      let pset, batched = twin () in
      let _, single = twin () in
      let both f = f batched; f single in
      let churn (adds, removes, _) =
        List.iter (fun pr -> both (fun e -> ignore (Engine.add_profile e pr))) adds;
        List.iter
          (fun i ->
            match Profile_set.ids pset with
            | [] -> ()
            | ids ->
              let id = List.nth ids (i mod List.length ids) in
              both (fun e -> ignore (Engine.remove_profile e id)))
          removes
      in
      List.for_all
        (fun ((_, _, events) as step) ->
          churn step;
          let events = Array.of_list events in
          let got = Engine.match_batch batched events in
          let expect =
            Array.map
              (fun ev ->
                let r = ref [||] in
                Engine.match_with single ev ~f:(fun ~ids ~len ->
                    r := Array.sub ids 0 len);
                !r)
              events
          in
          got = expect
          && ops_eq (Engine.ops batched) (Engine.ops single)
          && Stats.events_seen (Engine.stats batched)
             = Stats.events_seen (Engine.stats single)
          && Engine.pending_rebuild batched = Engine.pending_rebuild single)
        steps)

(* An aggregated engine compiles only the covering-minimal roots and
   expands absorbed profiles at match time; its decisions must be
   bit-identical to a plain engine over the same registry, on both the
   single-event and batch paths, before and after an epoch swap. *)
let prop_engine_aggregated_equals_plain =
  QCheck.Test.make ~name:"aggregated Engine = plain Engine"
    ~count:25
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:12 ~n_events:20 ()))
    (fun (_, pset, events) ->
      let events = Array.of_list events in
      let plain =
        let engine = Engine.create pset in
        Array.map
          (fun e -> Array.of_list (Engine.match_event engine e))
          events
      in
      let agg = Engine.create ~aggregate:true pset in
      let before_swap =
        Array.map (fun e -> Array.of_list (Engine.match_event agg e)) events
      in
      Engine.swap_now agg;
      let after_swap = Engine.match_batch agg events in
      plain = before_swap && plain = after_swap)

(* ------------------------------------------------------------------ *)
(* Edge cases. *)

let schema () =
  Schema.create_exn
    [
      ("x", Domain.int_range ~lo:0 ~hi:9);
      ("s", Domain.enum [ "a"; "b"; "c" ]);
    ]

let pset_of schema specs =
  let pset = Profile_set.create schema in
  List.iter
    (fun tests ->
      ignore (Profile_set.add pset (Profile.create_exn schema tests)))
    specs;
  pset

let event s x sv =
  Event.create_exn s [ ("x", Value.Int x); ("s", Value.Str sv) ]

let flat_of pset =
  let stats = Stats.create (Decomp.build pset) in
  Flat.compile (Reorder.build stats Reorder.default_spec)

let test_empty_tree () =
  let s = schema () in
  let pset = Profile_set.create s in
  let flat = flat_of pset in
  let cur = Flat.cursor flat in
  Alcotest.(check (list int)) "no profiles, no matches" []
    (match_list flat cur (event s 3 "a"));
  Alcotest.(check int) "no flat nodes" 0 (Flat.node_count flat)

let test_all_dont_care () =
  let s = schema () in
  (* One unconstrained profile, one constrained, one unconstrained:
     don't-care ids must survive dedup and stay ascending. *)
  let pset =
    pset_of s [ []; [ ("x", Predicate.Eq (Value.Int 1)) ]; [] ]
  in
  let flat = flat_of pset in
  let cur = Flat.cursor flat in
  Alcotest.(check (list int)) "don't-cares always match" [ 0; 2 ]
    (match_list flat cur (event s 5 "a"));
  Alcotest.(check (list int)) "plus the constrained one" [ 0; 1; 2 ]
    (match_list flat cur (event s 1 "c"))

(* Values outside the matcher's schema: an event validated against a
   looser schema of the same arity carries them into [match_into]. The
   int table, the enum rank table and the generic float path each have
   an out-of-domain branch; the pointer tree is the oracle. *)
let test_out_of_domain_coords () =
  let s =
    Schema.create_exn
      [
        ("x", Domain.int_range ~lo:0 ~hi:9);
        ("s", Domain.enum [ "a"; "b"; "c" ]);
        ("f", Domain.float_range ~lo:0.0 ~hi:10.0);
      ]
  in
  let pset =
    pset_of s
      [
        [ ("x", Predicate.Ge (Value.Int 5)) ];
        [ ("s", Predicate.Eq (Value.Str "b")) ];
        [ ("f", Predicate.Le (Value.Float 2.5)) ];
        [];
      ]
  in
  let stats = Stats.create (Decomp.build pset) in
  let tree = Reorder.build stats Reorder.default_spec in
  let flat = Flat.compile tree in
  let cur = Flat.cursor flat in
  let image = Image.create s in
  let loose =
    Schema.create_exn
      [
        ("x", Domain.int_range ~lo:(-1000) ~hi:1000);
        ("s", Domain.enum [ "a"; "b"; "c"; "zz" ]);
        ("f", Domain.float_range ~lo:(-1e6) ~hi:1e6);
      ]
  in
  let kinds =
    Schema.create_exn
      [
        ("x", Domain.float_range ~lo:0.0 ~hi:10.0);
        ("s", Domain.int_range ~lo:0 ~hi:9);
        ("f", Domain.enum [ "a" ]);
      ]
  in
  List.iter
    (fun (label, schema, x, sv, f) ->
      let e = Event.create_exn schema [ ("x", x); ("s", sv); ("f", f) ] in
      let tree_ops = Ops.create () and flat_ops = Ops.create () in
      let expect = Tree.match_event ~ops:tree_ops tree e in
      Alcotest.(check (list int)) (label ^ ": matches") expect
        (match_list ~ops:flat_ops ~image flat cur e);
      Alcotest.(check bool) (label ^ ": ops") true (ops_eq tree_ops flat_ops))
    [
      ("in domain", s, Value.Int 7, Value.Str "b", Value.Float 1.0);
      ("int below", loose, Value.Int (-1), Value.Str "b", Value.Float 1.0);
      ("int above", loose, Value.Int 10, Value.Str "a", Value.Float 1.0);
      ("float outside", loose, Value.Int 7, Value.Str "b", Value.Float 11.0);
      ("float below", loose, Value.Int 7, Value.Str "c", Value.Float (-0.5));
      ("unknown enum", loose, Value.Int 7, Value.Str "zz", Value.Float 1.0);
      ("wrong kinds", kinds, Value.Float 7.0, Value.Int 1, Value.Str "a");
    ]

(* Int bounds beyond ±2^53 (nanosecond timestamps) would round on the
   float axis and make the tree, the flat kernel and the plain engine
   disagree with Naive, so the domain refuses them. Just inside the
   bound every coordinate is exact: Flat (through an image), the plain
   engine and the aggregated engine all agree with Naive at every
   probe point. *)
let test_huge_int_bounds () =
  let exact = 1 lsl 53 in
  let refused lo hi =
    Alcotest.check_raises (Printf.sprintf "int[%d,%d] refused" lo hi)
      (Invalid_argument "Domain.int_range: bounds outside (-2^53, 2^53)")
      (fun () -> ignore (Domain.int_range ~lo ~hi))
  in
  let ts = 1_700_000_000_000_000_000 in
  refused ts (ts + 800);
  refused min_int max_int;
  refused (-exact) 0;
  refused 0 exact;
  Alcotest.(check bool) "of_string refuses" true
    (Result.is_error
       (Domain.of_string (Printf.sprintf "int[%d,%d]" ts (ts + 800))));
  List.iter
    (fun lo ->
      let s = Schema.create_exn [ ("t", Domain.int_range ~lo ~hi:(lo + 800)) ] in
      let pset =
        pset_of s
          [
            [ ("t", Predicate.Ge (Value.Int (lo + 500))) ];
            [ ("t", Predicate.Le (Value.Int (lo + 100))) ];
            [];
          ]
      in
      let naive = Naive.build pset in
      let flat = flat_of pset in
      let cur = Flat.cursor flat and image = Image.create s in
      let plain = Engine.create pset and agg = Engine.create ~aggregate:true pset in
      List.iter
        (fun x ->
          let e = Event.create_exn s [ ("t", Value.Int (lo + x)) ] in
          let expect = Naive.match_event naive e in
          let label = Printf.sprintf "%d + %d" lo x in
          Alcotest.(check (list int)) (label ^ ": flat") expect
            (match_list ~image flat cur e);
          Alcotest.(check (list int)) (label ^ ": plain") expect
            (Engine.match_event plain e);
          Alcotest.(check (list int)) (label ^ ": aggregated") expect
            (Engine.match_event agg e))
        [ 0; 100; 500; 780; 800 ])
    [ exact - 801; -exact + 1 ]

let test_foreign_cursor_rejected () =
  let s = schema () in
  let flat_a = flat_of (pset_of s [ [ ("x", Predicate.Eq (Value.Int 1)) ] ]) in
  let flat_b =
    flat_of
      (pset_of s
         [
           [ ("x", Predicate.Eq (Value.Int 1)) ];
           [ ("x", Predicate.Eq (Value.Int 2)) ];
           [ ("s", Predicate.Eq (Value.Str "a")) ];
         ])
  in
  let cur_a = Flat.cursor flat_a in
  Alcotest.check_raises "foreign cursor"
    (Invalid_argument "Flat.match_into: cursor built for a different matcher")
    (fun () -> ignore (Flat.match_into flat_b cur_a (event s 1 "a")))

let test_sharing_preserved () =
  let s = schema () in
  let pset =
    pset_of s
      [
        [ ("x", Predicate.Le (Value.Int 4)) ];
        [ ("x", Predicate.Ge (Value.Int 5)) ];
        [ ("s", Predicate.Eq (Value.Str "b")) ];
      ]
  in
  let stats = Stats.create (Decomp.build pset) in
  let tree = Reorder.build stats Reorder.default_spec in
  let st = tree.Tree.stats in
  let flat = Flat.compile tree in
  Alcotest.(check int) "flat nodes = tree nodes + leaves"
    (st.Tree.nodes + st.Tree.leaves)
    (Flat.node_count flat)

(* The compiled image of the bench's 500-profile paper table at its
   default seed: any change to the compiler must reproduce it exactly. *)
let test_paper_table_image () =
  let pset = Perfbench.paper_profiles (Prng.create ~seed:99) in
  let stats = Stats.create (Decomp.build pset) in
  let image share =
    let flat = Flat.compile (Reorder.build ~share stats Perfbench.v1a2) in
    [ Flat.node_count flat; Flat.edge_count flat; Flat.posting_count flat ]
  in
  Alcotest.(check (list int)) "shared" [ 30559; 89036; 98095 ] (image true);
  Alcotest.(check (list int)) "unshared" [ 111071; 108053; 259952 ]
    (image false)

(* The rows the documented rule gives a pointer tree: an inner node's
   row has one slot per distinct lookup position of its attribute plus
   the out-of-domain sentinel, and the node gets it when that is at most
   8 slots per (edge + 1) and it has at most 255 edges. Returns (nodes
   with a row, nodes without, row slots). *)
let row_rule (tree : Tree.t) =
  let width =
    Array.map
      (fun (tb : Genas_filter.Order.table) ->
        1 + List.length (List.sort_uniq Float.compare (Array.to_list tb.positions)))
      tree.Tree.tables
  in
  let seen = Hashtbl.create 64 in
  let rows = ref 0 and searches = ref 0 and slots = ref 0 in
  let rec go = function
    | Tree.Leaf _ -> ()
    | Tree.Node { id; attr; edge_positions; children; rest; _ } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        let k = Array.length edge_positions in
        if width.(attr) <= 8 * (k + 1) && k <= 255 then begin
          incr rows;
          slots := !slots + width.(attr)
        end
        else incr searches;
        Array.iter go children;
        Option.iter go rest
      end
  in
  Option.iter go tree.Tree.root;
  (!rows, !searches, !slots)

(* A paper-like table (three 100-point int attributes, equality and
   short range tests, 30% don't-care) plus a wide float attribute with
   many distinct range bounds. Profile values avoid the outer points of
   the int attributes, so those land in zero cells (half-rank targets),
   and the float attribute's many cells leave its sparse nodes without
   rows. Both node kinds compile under every spec, and every event,
   in the domain or outside it (through a looser schema), matches as
   the pointer tree does, with the same counters. *)
let test_row_and_search_nodes () =
  let rng = Prng.create ~seed:27 in
  let dom name = (name, Domain.int_range ~lo:0 ~hi:99) in
  let s =
    Schema.create_exn
      [ dom "a0"; dom "a1"; dom "a2"; ("w", Domain.float_range ~lo:0.0 ~hi:1000.0) ]
  in
  let pset = Profile_set.create s in
  let bounds = ref [] in
  for _ = 1 to 300 do
    let int_test name =
      if Prng.bernoulli rng ~p:0.3 then []
      else
        let v = Prng.int_in rng ~lo:20 ~hi:79 in
        if Prng.bernoulli rng ~p:0.8 then [ (name, Predicate.Eq (Value.Int v)) ]
        else
          [
            ( name,
              Predicate.Between
                { lo = Value.Int v; lo_closed = true;
                  hi = Value.Int (v + 3); hi_closed = true } );
          ]
    in
    let w_test =
      if Prng.bernoulli rng ~p:0.5 then []
      else begin
        let lo = Prng.float_in rng ~lo:0.0 ~hi:990.0 in
        let hi = lo +. Prng.float_in rng ~lo:0.5 ~hi:10.0 in
        bounds := lo :: hi :: !bounds;
        [
          ( "w",
            Predicate.Between
              { lo = Value.Float lo; lo_closed = true;
                hi = Value.Float hi; hi_closed = false } );
        ]
      end
    in
    let tests = int_test "a0" @ int_test "a1" @ int_test "a2" @ w_test in
    ignore (Profile_set.add pset (Profile.create_exn s tests))
  done;
  let bounds = Array.of_list !bounds in
  let loose =
    Schema.create_exn
      [
        ("a0", Domain.int_range ~lo:(-50) ~hi:150);
        ("a1", Domain.int_range ~lo:(-50) ~hi:150);
        ("a2", Domain.int_range ~lo:(-50) ~hi:150);
        ("w", Domain.float_range ~lo:(-100.0) ~hi:1100.0);
      ]
  in
  let event schema ~int_lo ~int_hi ~w =
    Event.create_exn schema
      (List.map
         (fun a -> (a, Value.Int (Prng.int_in rng ~lo:int_lo ~hi:int_hi)))
         [ "a0"; "a1"; "a2" ]
      @ [ ("w", Value.Float w) ])
  in
  let events =
    List.init 600 (fun i ->
        let w =
          match i mod 3 with
          | 0 -> Prng.float_in rng ~lo:0.0 ~hi:1000.0
          | 1 -> bounds.(Prng.int_in rng ~lo:0 ~hi:(Array.length bounds - 1))
          | _ -> Float.pred bounds.(Prng.int_in rng ~lo:0 ~hi:(Array.length bounds - 1))
        in
        event s ~int_lo:0 ~int_hi:99 ~w)
    @ List.init 200 (fun _ ->
          event loose ~int_lo:(-50) ~int_hi:150
            ~w:(Prng.float_in rng ~lo:(-100.0) ~hi:1100.0))
  in
  List.iter
    (fun (name, tree) ->
      let rows, searches, slots = row_rule tree in
      let flat = Flat.compile tree in
      Alcotest.(check bool) (name ^ ": nodes with rows") true (rows > 0);
      Alcotest.(check bool) (name ^ ": nodes without rows") true (searches > 0);
      Alcotest.(check int) (name ^ ": row slots") slots (Flat.row_slots flat);
      let cur = Flat.cursor flat and image = Image.create s in
      let tree_ops = Ops.create () and flat_ops = Ops.create () in
      List.iteri
        (fun i e ->
          let expect = Tree.match_event ~ops:tree_ops tree e in
          let label = Printf.sprintf "%s: event %d" name i in
          Alcotest.(check (list int)) (label ^ " matches") expect
            (match_list ~ops:flat_ops ~image flat cur e);
          if not (ops_eq tree_ops flat_ops) then
            Alcotest.failf "%s ops: tree %a, flat %a" label Ops.pp tree_ops
              Ops.pp flat_ops)
        events)
    (trees_of pset)

(* About 2,000 distinct float range bounds: short intervals on two wide
   float attributes give thousands of cells, most inner nodes a handful
   of edges over them, and a root with more edges than a row entry can
   charge. Whatever the shape, the rows stay within 8 slots per (edge +
   1) of the nodes they serve. *)
let test_row_memory_bound () =
  let rng = Prng.create ~seed:2000 in
  let s =
    Schema.create_exn
      [
        ("f", Domain.float_range ~lo:0.0 ~hi:1e4);
        ("g", Domain.float_range ~lo:0.0 ~hi:1e4);
        ("k", Domain.int_range ~lo:0 ~hi:7);
      ]
  in
  let pset = Profile_set.create s in
  let range name =
    let lo = Prng.float_in rng ~lo:0.0 ~hi:9990.0 in
    ( name,
      Predicate.Between
        { lo = Value.Float lo; lo_closed = true;
          hi = Value.Float (lo +. Prng.float_in rng ~lo:1.0 ~hi:8.0);
          hi_closed = true } )
  in
  for _ = 1 to 500 do
    let k = Prng.int_in rng ~lo:0 ~hi:7 in
    ignore
      (Profile_set.add pset
         (Profile.create_exn s [ range "f"; range "g"; ("k", Predicate.Eq (Value.Int k)) ]))
  done;
  List.iter
    (fun (name, tree) ->
      let flat = Flat.compile tree in
      let st = tree.Tree.stats in
      let bound = 8 * (st.Tree.edges + st.Tree.nodes) in
      if Flat.row_slots flat > bound then
        Alcotest.failf "%s: %d row slots over the bound %d" name
          (Flat.row_slots flat) bound;
      let _, searches, slots = row_rule tree in
      Alcotest.(check int) (name ^ ": row slots") slots (Flat.row_slots flat);
      Alcotest.(check bool) (name ^ ": nodes without rows") true (searches > 0))
    (trees_of pset)

let () =
  Alcotest.run "flat"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_flat_equals_tree;
          QCheck_alcotest.to_alcotest prop_flat_equals_baselines;
          QCheck_alcotest.to_alcotest prop_engine_batch_equals_match_event;
          QCheck_alcotest.to_alcotest prop_engine_aggregated_equals_plain;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "all don't-care" `Quick test_all_dont_care;
          Alcotest.test_case "out-of-domain coords" `Quick
            test_out_of_domain_coords;
          Alcotest.test_case "huge int bounds" `Quick test_huge_int_bounds;
          Alcotest.test_case "foreign cursor" `Quick
            test_foreign_cursor_rejected;
          Alcotest.test_case "sharing preserved" `Quick test_sharing_preserved;
          Alcotest.test_case "paper table image" `Quick test_paper_table_image;
          Alcotest.test_case "row and search nodes" `Quick
            test_row_and_search_nodes;
          Alcotest.test_case "row memory bound" `Quick test_row_memory_bound;
        ] );
    ]
