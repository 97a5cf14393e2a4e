(* The subscription-aggregation layer: axis-aware covering, the
   covering lattice against the O(n²) oracle, recovery determinism of
   the covering-minimal set, and the aggregated engine's differential
   equivalence with a plain engine under churn and epoch swaps. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Covering = Genas_profile.Covering
module Lattice = Genas_profile.Lattice
module Engine = Genas_core.Engine
module Naive = Genas_filter.Naive
module Ops = Genas_filter.Ops
module Broker = Genas_ens.Broker
module Journal = Genas_ens.Journal
module Gen = Genas_testlib.Gen

let schema () =
  Schema.create_exn
    [ ("x", Domain.int_range ~lo:0 ~hi:9); ("y", Domain.int_range ~lo:0 ~hi:9) ]

let p s tests = Profile.create_exn s tests

(* ------------------ axis-aware covering (regression) -------------- *)

(* Regression: a predicate whose denotation spans the whole axis is
   semantically a don't-care. [covers] used to compare [Some denot]
   against [None] structurally and answer [false], so e.g. [x >= 0]
   (over x : 0..9) was not recognized as covering — or being covered
   by — a profile that leaves x unconstrained. *)
let test_covers_full_axis_is_dont_care () =
  let s = schema () in
  let full_x = p s [ ("x", Predicate.Ge (Value.Int 0)) ] in
  let full_y = p s [ ("y", Predicate.Le (Value.Int 9)) ] in
  let blank = p s [] in
  let narrow = p s [ ("x", Predicate.Ge (Value.Int 5)) ] in
  Alcotest.(check bool) "full-axis covers blank" true
    (Covering.covers s full_x blank);
  Alcotest.(check bool) "blank covers full-axis" true
    (Covering.covers s blank full_x);
  Alcotest.(check bool) "full-axis x ≡ full-axis y" true
    (Covering.equivalent s full_x full_y);
  Alcotest.(check bool) "full-axis covers narrow" true
    (Covering.covers s full_x narrow);
  Alcotest.(check bool) "narrow !covers full-axis" false
    (Covering.covers s narrow full_x);
  (* The minimal cover collapses all the everything-matchers onto the
     smallest id. *)
  let kept =
    Covering.minimal_cover s [ (4, full_x); (2, full_y); (7, blank) ]
  in
  Alcotest.(check (list int)) "one representative" [ 2 ] (List.map fst kept)

let prop_covers_agrees_with_match_sets =
  QCheck.Test.make
    ~name:"covers s a b <=> no event matches b without a (sampled)" ~count:150
    (QCheck.make
       QCheck.Gen.(
         Gen.schema ~max_attrs:2 () >>= fun s ->
         Gen.profile s >>= fun a ->
         Gen.profile s >>= fun b ->
         Gen.events ~n:40 s >|= fun es -> (s, a, b, es)))
    (fun (s, a, b, es) ->
      (* Soundness direction only: sampled events cannot refute
         non-covering, but a cover claim must never be contradicted. *)
      (not (Covering.covers s a b))
      || List.for_all
           (fun e -> (not (Profile.matches s b e)) || Profile.matches s a e)
           es)

(* --------------------- lattice vs oracle -------------------------- *)

let oracle_ids s entries =
  List.map fst
    (Covering.minimal_cover s
       (List.sort (fun (i, _) (j, _) -> Int.compare i j) entries))

let lattice_of s entries =
  let lat = Lattice.create s in
  List.iter (fun (id, pr) -> ignore (Lattice.add lat ~id pr)) entries;
  lat

let lattice_invariants s lat entries =
  let live = List.length entries in
  Lattice.size lat = live
  && Lattice.absorbed lat = live - Lattice.root_count lat
  && List.map fst (Lattice.minimal_cover lat) = oracle_ids s entries
  && List.map fst (Lattice.entries lat)
     = List.sort Int.compare (List.map fst entries)
  && List.for_all
       (fun (id, _) ->
         Lattice.mem lat id
         &&
         match Lattice.find lat id with
         | None -> false
         | Some canon -> (
           match List.assoc_opt id entries with
           | None -> false
           | Some pr -> Covering.equivalent s canon pr))
       entries

let prop_lattice_roots_equal_oracle =
  QCheck.Test.make
    ~name:"lattice roots = minimal_cover oracle, any insertion order"
    ~count:80
    (QCheck.make
       QCheck.Gen.(
         Gen.schema ~max_attrs:2 () >>= fun s ->
         list_size (int_range 1 12) (Gen.profile s) >>= fun ps ->
         shuffle_l (List.mapi (fun i pr -> (i, pr)) ps) >|= fun shuffled ->
         (s, shuffled)))
    (fun (s, entries) -> lattice_invariants s (lattice_of s entries) entries)

let prop_lattice_churn =
  QCheck.Test.make
    ~name:"lattice invariants hold across add/remove interleavings"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         Gen.schema ~max_attrs:2 () >>= fun s ->
         list_size (int_range 8 30)
           (frequency
              [
                (3, Gen.profile s >|= fun pr -> `Add pr);
                (2, int_bound 1000 >|= fun i -> `Remove i);
              ])
         >|= fun ops -> (s, ops)))
    (fun (s, ops) ->
      let lat = Lattice.create s in
      let live = ref [] in
      let next = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | `Add pr ->
            let id = !next in
            incr next;
            ignore (Lattice.add lat ~id pr);
            live := (id, pr) :: !live
          | `Remove i -> (
            match !live with
            | [] -> ()
            | l ->
              let id, _ = List.nth l (i mod List.length l) in
              (match Lattice.remove lat id with
              | None -> Alcotest.fail "live id not found in lattice"
              | Some _ -> ());
              live := List.remove_assoc id l));
          lattice_invariants s lat !live)
        ops)

let test_lattice_descendants () =
  let s = schema () in
  let broad = p s [ ("x", Predicate.Ge (Value.Int 2)) ] in
  let mid = p s [ ("x", Predicate.Ge (Value.Int 5)) ] in
  let narrow = p s [ ("x", Predicate.Ge (Value.Int 8)) ] in
  let lat = Lattice.create s in
  ignore (Lattice.add lat ~id:0 broad);
  ignore (Lattice.add lat ~id:1 mid);
  ignore (Lattice.add lat ~id:2 narrow);
  ignore (Lattice.add lat ~id:3 mid);
  (* equivalence duplicate *)
  Alcotest.(check int) "one root" 1 (Lattice.root_count lat);
  Alcotest.(check int) "absorbed" 3 (Lattice.absorbed lat);
  Alcotest.(check int) "broad absorbs all" 3 (Lattice.descendant_count lat 0);
  Alcotest.(check int) "mid absorbs narrow" 1 (Lattice.descendant_count lat 1);
  Alcotest.(check int) "narrow absorbs none" 0 (Lattice.descendant_count lat 2);
  Alcotest.(check (option int)) "covered_by finds the root" (Some 0)
    (Lattice.covered_by lat narrow);
  (* Removing the root promotes mid; narrow stays absorbed under it. *)
  (match Lattice.remove lat 0 with
  | Some (Lattice.Dissolved { root = true; promoted = [ [ 1; 3 ] ] }) -> ()
  | _ -> Alcotest.fail "expected the mid class to be promoted");
  Alcotest.(check (list int)) "new root" [ 1 ]
    (List.map fst (Lattice.minimal_cover lat))

let test_lattice_cover_tests_sublinear () =
  (* On a covering-heavy population — the workload aggregation exists
     for — insertion cost is (roots probed + one chain descent), not a
     scan of all live entries. 16 broad range roots each absorb a
     stream of point profiles; the oracle's pairwise rescan would cost
     ~n²/2 tests, the lattice must stay an order of magnitude below. *)
  let s = Schema.create_exn [ ("x", Domain.int_range ~lo:0 ~hi:999) ] in
  let lat = Lattice.create s in
  let roots = 16 and n = 400 in
  let width = 1000 / roots in
  for r = 0 to roots - 1 do
    ignore
      (Lattice.add lat ~id:r
         (p s
            [
              ( "x",
                Predicate.Between
                  {
                    lo = Value.Int (r * width);
                    lo_closed = true;
                    hi = Value.Int (((r + 1) * width) - 1);
                    hi_closed = true;
                  } );
            ]))
  done;
  for i = roots to n - 1 do
    ignore
      (Lattice.add lat ~id:i (p s [ ("x", Predicate.Eq (Value.Int (i mod 1000))) ]))
  done;
  Alcotest.(check int) "broad roots absorb the points" roots
    (Lattice.root_count lat);
  let tests = Lattice.cover_tests lat in
  Alcotest.(check bool)
    (Printf.sprintf "cover tests sublinear (%d for n=%d)" tests n)
    true
    (tests < n * n / 8)

(* ---------------- recovery determinism (regression) --------------- *)

let mc_ids engine =
  match Engine.lattice engine with
  | None -> Alcotest.fail "engine is not aggregated"
  | Some lat -> List.map fst (Lattice.minimal_cover lat)

let fresh_dir () =
  let path = Filename.temp_file "genas_cover" ".d" in
  Sys.remove path;
  path

(* Regression: the covering-minimal set must be bit-identical between
   a live broker and its recovered twin. Live insertion order is
   subscription order with removals interleaved; recovery rebuilds
   from a snapshot (ascending ids) and/or replays the journal — the
   [eliminates] id tie-break and the lattice's order-independent roots
   must make all three agree. *)
let recovery_case ~snapshot_every () =
  let s = schema () in
  let dir = fresh_dir () in
  let b =
    Broker.create ~aggregate:true
      ~journal:(Journal.config ~snapshot_every dir)
      s
  in
  let sub tests =
    Broker.subscribe b ~subscriber:"t" ~profile:(p s tests) (fun _ -> ())
  in
  (* Narrow first, broad later: the broad subscriptions demote earlier
     roots; equivalents collapse; a removal promotes a covered class. *)
  let h_narrow = sub [ ("x", Predicate.Ge (Value.Int 8)) ] in
  let _ = sub [ ("x", Predicate.Ge (Value.Int 5)) ] in
  let _ = sub [ ("y", Predicate.Le (Value.Int 3)) ] in
  let h_broad = sub [ ("x", Predicate.Ge (Value.Int 2)) ] in
  let _ = sub [ ("x", Predicate.Ge (Value.Int 5)) ] in
  (* equivalent of id 1 *)
  let _ = sub [ ("x", Predicate.Ge (Value.Int 0)) ] in
  (* full-axis: equivalent to a blank profile *)
  ignore (Broker.unsubscribe b h_narrow);
  ignore (Broker.unsubscribe b h_broad);
  let live = mc_ids (Broker.engine b) in
  let oracle =
    let pset = Engine.profiles (Broker.engine b) in
    let entries =
      Profile_set.fold pset ~init:[] ~f:(fun acc id pr -> (id, pr) :: acc)
      |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
    in
    List.map fst (Covering.minimal_cover s entries)
  in
  Alcotest.(check (list int)) "live lattice = oracle" oracle live;
  Broker.close b;
  match
    Broker.recover ~aggregate:true
      ~journal:(Journal.config ~snapshot_every dir)
      s
  with
  | Error e -> Alcotest.fail ("recover: " ^ e)
  | Ok r ->
    Alcotest.(check (list int))
      "recovered minimal cover bit-identical" live
      (mc_ids (Broker.engine r));
    Broker.close r

let test_recovery_minimal_cover_journal () = recovery_case ~snapshot_every:100 ()
let test_recovery_minimal_cover_snapshot () = recovery_case ~snapshot_every:2 ()

let copy_dir src =
  let dst = fresh_dir () in
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let bytes =
        In_channel.with_open_bin (Filename.concat src f) In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc bytes))
    (Sys.readdir src);
  dst

(* An aggregated broker recovered from a snapshot taken with churn
   pending matches exactly what the live one matches. It is not
   bit-identical: aggregated snapshots record no pending churn, so
   recovery compiles every root (epoch 0, nothing pending) where the
   live engine still verifies its pending roots, and the two count
   different comparisons per event (docs/ROBUSTNESS.md, "Known
   limits"). Only the matches are pinned here. *)
let test_recovery_aggregated_matches () =
  let s =
    Schema.create_exn
      [ ("x", Domain.int_range ~lo:0 ~hi:99); ("y", Domain.int_range ~lo:0 ~hi:99) ]
  in
  let dir = fresh_dir () in
  let b =
    Broker.create ~aggregate:true
      ~journal:(Journal.config ~snapshot_every:100_000 ~fsync:false dir)
      s
  in
  let sub tests =
    Broker.subscribe b ~subscriber:"t" ~profile:(p s tests) (fun _ -> ())
  in
  let range a lo hi =
    [ (a, Predicate.Ge (Value.Int lo)); (a, Predicate.Le (Value.Int hi)) ]
  in
  (* 25 disjoint roots on x, each covering a chain of 7 narrower
     profiles: 200 subscriptions. *)
  let handles =
    List.concat_map
      (fun r ->
        let root = range "x" (4 * r) ((4 * r) + 3) in
        let narrower k = root @ [ ("y", Predicate.Ge (Value.Int (10 * k))) ] in
        sub root :: List.init 7 (fun k -> sub (narrower (k + 1))))
      (List.init 25 Fun.id)
  in
  Engine.refresh_keeping_history (Broker.engine b);
  let rng = Genas_prng.Prng.create ~seed:3 in
  let event () =
    Event.create_exn s
      [ ("x", Value.Int (Genas_prng.Prng.int rng ~bound:100));
        ("y", Value.Int (Genas_prng.Prng.int rng ~bound:100)) ]
  in
  let publish n = for _ = 1 to n do ignore (Broker.publish b (event ())) done in
  publish 300;
  (* Six broad roots, each demoting three of the old ones. *)
  for j = 0 to 5 do ignore (sub (range "x" (16 * j) ((16 * j) + 11))) done;
  List.iteri
    (fun i h -> if i mod 37 = 0 then ignore (Broker.unsubscribe b h))
    handles;
  publish 50;
  Broker.snapshot_now b;
  publish 50;
  let copy = copy_dir dir in
  match
    Broker.recover ~aggregate:true
      ~journal:(Journal.config ~fsync:false copy)
      s
  with
  | Error e -> Alcotest.fail ("recover: " ^ e)
  | Ok r ->
    let live = Broker.engine b and recovered = Broker.engine r in
    Alcotest.(check int) "same subscriptions" (Broker.subscription_count b)
      (Broker.subscription_count r);
    for i = 1 to 2000 do
      let e = event () in
      Alcotest.(check (list int)) (Printf.sprintf "event %d" i)
        (Engine.match_event live e) (Engine.match_event recovered e)
    done;
    Broker.close r;
    Broker.close b

(* ------------- aggregated ≡ plain engine differential ------------- *)

let ids_equal a b = List.equal Int.equal a b

(* Scripted churn applied to a plain and an aggregated engine in
   lockstep: every match decision must agree exactly, whatever the
   interleaving of subscribes, unsubscribes, forced epoch swaps, and
   the automatic swaps a tiny [delta_cap] triggers mid-stream. *)
let prop_agg_equals_plain_under_churn =
  QCheck.Test.make
    ~name:"aggregated engine ≡ plain engine under churn + epoch swaps"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         Gen.schema ~max_attrs:3 () >>= fun s ->
         list_size (int_range 0 10) (Gen.profile s) >>= fun initial ->
         list_size (int_range 10 50)
           (frequency
              [
                (3, Gen.profile s >|= fun pr -> `Add pr);
                (2, int_bound 1000 >|= fun i -> `Remove i);
                (5, Gen.event s >|= fun e -> `Match e);
                (1, return `Swap);
              ])
         >>= fun ops ->
         Gen.events ~n:15 s >|= fun batch -> (s, initial, ops, batch)))
    (fun (s, initial, ops, batch) ->
      let mk aggregate =
        let pset = Profile_set.create s in
        List.iter (fun pr -> ignore (Profile_set.add pset pr)) initial;
        Engine.create ~aggregate ~delta_cap:3 pset
      in
      let plain = mk false and agg = mk true in
      let live = ref (Profile_set.ids (Engine.profiles plain)) in
      let step op =
        match op with
        | `Add pr ->
          let i1 = Engine.add_profile plain pr in
          let i2 = Engine.add_profile agg pr in
          if i1 <> i2 then Alcotest.fail "id drift between engines";
          live := !live @ [ i1 ];
          true
        | `Remove i -> (
          match !live with
          | [] -> true
          | l ->
            let id = List.nth l (i mod List.length l) in
            live := List.filter (fun x -> x <> id) l;
            Engine.remove_profile plain id = Engine.remove_profile agg id)
        | `Match e ->
          ids_equal (Engine.match_event plain e) (Engine.match_event agg e)
        | `Swap ->
          Engine.swap_now agg;
          true
      in
      List.for_all step ops
      &&
      (* Batch path too, with a swap left pending. *)
      let ba = Engine.match_batch plain (Array.of_list batch) in
      let bb = Engine.match_batch agg (Array.of_list batch) in
      Array.for_all2 (fun x y -> ids_equal (Array.to_list x) (Array.to_list y))
        ba bb)

(* Aggregated engine ≡ Naive over its own registry. The schema mixes
   every domain kind; float bounds come from a small grid the events
   also draw from, so open bounds ([Lt]/[Gt], open [Between]) are hit
   exactly. [Neq] and gapped [One_of] give multi-interval denotations,
   the nodes whose hull alone cannot decide a match. Churn adds
   nested profiles (a live profile plus one more test) and equivalent
   ones (a live profile again, or with a full-axis test added), and
   runs through forced and automatic swaps. *)
let mixed_schema =
  Schema.create_exn
    [
      ("n", Domain.int_range ~lo:0 ~hi:12);
      ("r", Domain.float_range ~lo:0.0 ~hi:10.0);
      ("c", Domain.enum [ "red"; "green"; "blue"; "cyan" ]);
      ("b", Domain.bool_dom);
    ]

let mixed_test attr =
  let open QCheck.Gen in
  let int_v = int_range 0 12 >|= fun v -> Value.Int v in
  let float_v =
    frequency
      [
        (3, oneofl [ 0.0; 2.5; 5.0; 7.5; 10.0 ]);
        (1, float_range 0.0 10.0);
      ]
    >|= fun v -> Value.Float v
  in
  let enum_v = oneofl [ "red"; "green"; "blue"; "cyan" ] >|= fun v -> Value.Str v in
  let range v =
    pair (pair v v) (pair bool bool) >|= fun ((a, b), (lo_closed, hi_closed)) ->
    let lo, hi = if Value.compare a b <= 0 then (a, b) else (b, a) in
    Predicate.Between { lo; lo_closed; hi; hi_closed }
  in
  match attr with
  | "n" ->
    frequency
      [
        (2, int_v >|= fun v -> Predicate.Eq v);
        (2, int_v >|= fun v -> Predicate.Neq v);
        (2, range int_v);
        (2, list_size (int_range 2 4) int_v >|= fun vs -> Predicate.One_of vs);
        (1, int_v >|= fun v -> Predicate.Ge v);
      ]
  | "r" ->
    frequency
      [
        (2, float_v >|= fun v -> Predicate.Lt v);
        (2, float_v >|= fun v -> Predicate.Gt v);
        (1, float_v >|= fun v -> Predicate.Le v);
        (1, float_v >|= fun v -> Predicate.Ge v);
        (1, float_v >|= fun v -> Predicate.Neq v);
        (2, range float_v);
      ]
  | "c" ->
    frequency
      [
        (2, enum_v >|= fun v -> Predicate.Eq v);
        (1, enum_v >|= fun v -> Predicate.Neq v);
        (2, list_size (int_range 2 3) enum_v >|= fun vs -> Predicate.One_of vs);
      ]
  | _ -> bool >|= fun v -> Predicate.Eq (Value.Bool v)

let mixed_attrs = [ "n"; "r"; "c"; "b" ]

(* Satisfiable tests or nothing: an unsatisfiable draw makes the caller
   skip the operation. *)
let mixed_tests =
  let open QCheck.Gen in
  flatten_l
    (List.map
       (fun a ->
         frequency [ (1, return None); (1, mixed_test a >|= Option.some) ]
         >|= Option.map (fun t -> (a, t)))
       mixed_attrs)
  >|= List.filter_map Fun.id

let named_tests (pr : Profile.t) =
  List.concat_map
    (fun (i, ts) ->
      let name = (Schema.attribute mixed_schema i).Schema.name in
      List.map (fun t -> (name, t)) ts)
    pr.Profile.tests

let mixed_event =
  let open QCheck.Gen in
  map4
    (fun n r c b ->
      Event.create_exn mixed_schema
        [
          ("n", Value.Int n); ("r", Value.Float r); ("c", Value.Str c);
          ("b", Value.Bool b);
        ])
    (int_range 0 12)
    (frequency
       [ (1, oneofl [ 0.0; 2.5; 5.0; 7.5; 10.0 ]); (1, float_range 0.0 10.0) ])
    (oneofl [ "red"; "green"; "blue"; "cyan" ])
    bool

let prop_agg_equals_naive_mixed =
  QCheck.Test.make ~name:"aggregated engine ≡ Naive, mixed schema under churn"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 12) mixed_tests >>= fun initial ->
         list_size (int_range 20 80)
           (frequency
              [
                (3, mixed_tests >|= fun ts -> `Add ts);
                ( 2,
                  pair (int_bound 1000) (oneofl mixed_attrs >>= fun a ->
                                         mixed_test a >|= fun t -> (a, t))
                  >|= fun (i, extra) -> `Nested (i, extra) );
                (1, pair (int_bound 1000) bool >|= fun (i, full) -> `Equiv (i, full));
                (2, int_bound 1000 >|= fun i -> `Remove i);
                (5, mixed_event >|= fun e -> `Match e);
                (1, return `Swap);
              ])
         >|= fun ops -> (initial, ops)))
    (fun (initial, ops) ->
      let s = mixed_schema in
      let pset = Profile_set.create s in
      List.iter
        (fun ts ->
          match Profile.create s ts with
          | Ok pr -> ignore (Profile_set.add pset pr)
          | Error _ -> ())
        initial;
      let agg = Engine.create ~aggregate:true ~delta_cap:2 pset in
      let add ts =
        match Profile.create s ts with
        | Ok pr -> ignore (Engine.add_profile agg pr)
        | Error _ -> ()
      in
      let pick i =
        match Profile_set.ids (Engine.profiles agg) with
        | [] -> None
        | ids -> Some (List.nth ids (i mod List.length ids))
      in
      let live_tests i =
        Option.map
          (fun id -> named_tests (Profile_set.find_exn (Engine.profiles agg) id))
          (pick i)
      in
      let step = function
        | `Add ts -> add ts; true
        | `Nested (i, extra) ->
          Option.iter (fun ts -> add (ts @ [ extra ])) (live_tests i);
          true
        | `Equiv (i, full) ->
          Option.iter
            (fun ts -> add (if full then ts @ [ ("n", Predicate.Ge (Value.Int 0)) ] else ts))
            (live_tests i);
          true
        | `Remove i -> (
          match pick i with
          | None -> true
          | Some id -> Engine.remove_profile agg id)
        | `Match e ->
          let want = Naive.match_event (Naive.build (Engine.profiles agg)) e in
          ids_equal want (Engine.match_event agg e)
        | `Swap -> Engine.swap_now agg; true
      in
      List.for_all step ops)

let test_agg_gauges_and_epochs () =
  let s = schema () in
  let pset = Profile_set.create s in
  let engine = Engine.create ~aggregate:true ~delta_cap:2 pset in
  Alcotest.(check bool) "aggregated" true (Engine.aggregated engine);
  Alcotest.(check int) "epoch 0" 0 (Engine.epoch engine);
  let broad = Engine.add_profile engine (p s [ ("x", Predicate.Ge (Value.Int 2)) ]) in
  let _n1 = Engine.add_profile engine (p s [ ("x", Predicate.Ge (Value.Int 5)) ]) in
  let _n2 = Engine.add_profile engine (p s [ ("x", Predicate.Ge (Value.Int 8)) ]) in
  (* The two covered adds touched only the lattice. *)
  Alcotest.(check int) "absorbed" 2 (Engine.absorbed_profiles engine);
  Alcotest.(check int) "roots" 1 (Engine.lattice_roots engine);
  let ev x = Event.create_exn s [ ("x", Value.Int x); ("y", Value.Int 0) ] in
  Alcotest.(check (list int)) "absorbed still matched" [ 0; 1; 2 ]
    (Engine.match_event engine (ev 9));
  Alcotest.(check (list int)) "partial expansion" [ 0; 1 ]
    (Engine.match_event engine (ev 6));
  (* Structural churn beyond delta_cap forces a swap on the churn op. *)
  let e0 = Engine.epoch engine in
  ignore (Engine.remove_profile engine broad);
  ignore (Engine.add_profile engine (p s [ ("y", Predicate.Le (Value.Int 4)) ]));
  ignore (Engine.add_profile engine (p s [ ("y", Predicate.Ge (Value.Int 6)) ]));
  ignore (Engine.add_profile engine (p s [ ("x", Predicate.Le (Value.Int 1)) ]));
  Alcotest.(check bool) "epoch advanced" true (Engine.epoch engine > e0);
  Alcotest.(check (list int)) "post-swap matching exact" [ 1; 2; 3 ]
    (Engine.match_event engine (ev 9));
  Engine.swap_now engine;
  Alcotest.(check int) "nothing pending after swap" 0
    (Engine.pending_rebuild engine);
  (* The paper's metric over this script: flat-form steps plus one per
     lattice node verified. *)
  Alcotest.(check int) "comparisons pinned" 10
    (Engine.ops engine).Ops.comparisons

let () =
  Alcotest.run "cover"
    [
      ( "covering",
        [
          Alcotest.test_case "full-axis denotation is don't-care" `Quick
            test_covers_full_axis_is_dont_care;
          QCheck_alcotest.to_alcotest prop_covers_agrees_with_match_sets;
        ] );
      ( "lattice",
        [
          QCheck_alcotest.to_alcotest prop_lattice_roots_equal_oracle;
          QCheck_alcotest.to_alcotest prop_lattice_churn;
          Alcotest.test_case "descendants and promotion" `Quick
            test_lattice_descendants;
          Alcotest.test_case "cover tests sublinear" `Quick
            test_lattice_cover_tests_sublinear;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "minimal cover deterministic (journal replay)"
            `Quick test_recovery_minimal_cover_journal;
          Alcotest.test_case "minimal cover deterministic (snapshot rebuild)"
            `Quick test_recovery_minimal_cover_snapshot;
          Alcotest.test_case "aggregated snapshot with pending churn" `Quick
            test_recovery_aggregated_matches;
        ] );
      ( "engine",
        [
          QCheck_alcotest.to_alcotest prop_agg_equals_plain_under_churn;
          QCheck_alcotest.to_alcotest prop_agg_equals_naive_mixed;
          Alcotest.test_case "gauges and epoch swaps" `Quick
            test_agg_gauges_and_epochs;
        ] );
    ]
