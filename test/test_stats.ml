(* Statistics objects: observation, assumed distributions, profile
   weights, and the zero-subdomain probability. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Axis = Genas_model.Axis
module Interval = Genas_interval.Interval
module Dist = Genas_dist.Dist
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Decomp = Genas_filter.Decomp
module Stats = Genas_core.Stats
module Image = Genas_model.Image

let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let setup ?(with_dontcare = false) () =
  let schema =
    Schema.create_exn
      [ ("x", Domain.int_range ~lo:0 ~hi:9); ("y", Domain.int_range ~lo:0 ~hi:9) ]
  in
  let pset = Profile_set.create schema in
  ignore
    (Profile_set.add pset
       (Profile.create_exn schema
          ([ ("x", Predicate.Le (Value.Int 4)) ]
          @ if with_dontcare then [] else [ ("y", Predicate.Eq (Value.Int 7)) ])));
  ignore
    (Profile_set.add pset
       (Profile.create_exn schema
          [ ("x", Predicate.Eq (Value.Int 2)); ("y", Predicate.Ge (Value.Int 5)) ]));
  (schema, Stats.create (Decomp.build pset))

let observe_event schema stats e =
  let img = Image.create schema in
  Image.resolve img e;
  Stats.observe stats img

let test_default_uniform () =
  let _, stats = setup () in
  let d = Stats.event_dist stats ~attr:0 in
  close "uniform point" 0.1 (Dist.prob_interval d (Interval.point 3.0))

let test_observation_estimates () =
  let schema, stats = setup () in
  for _ = 1 to 100 do
    observe_event schema stats
      (Event.create_exn schema [ ("x", Value.Int 2); ("y", Value.Int 7) ])
  done;
  Alcotest.(check int) "seen" 100 (Stats.events_seen stats);
  let d = Stats.event_dist stats ~attr:0 in
  Alcotest.(check bool) "mass near 2" true
    (Dist.prob_interval d (Interval.point 2.0) > 0.9)

let test_assumed_takes_precedence () =
  let schema, stats = setup () in
  let axis = (Stats.decomp stats).Decomp.axes.(0) in
  for _ = 1 to 50 do
    observe_event schema stats
      (Event.create_exn schema [ ("x", Value.Int 9); ("y", Value.Int 0) ])
  done;
  Stats.assume_event_dist stats ~attr:0 (Dist.of_atoms axis [ (1.0, 1.0) ]);
  let d = Stats.event_dist stats ~attr:0 in
  close "assumed atom" 1.0 (Dist.prob_interval d (Interval.point 1.0));
  Stats.clear_assumed stats ~attr:0;
  let d' = Stats.event_dist stats ~attr:0 in
  Alcotest.(check bool) "observed back in force" true
    (Dist.prob_interval d' (Interval.point 9.0) > 0.5)

let test_assume_axis_guard () =
  let _, stats = setup () in
  let wrong = Axis.make ~discrete:false ~lo:0.0 ~hi:1.0 in
  Alcotest.check_raises "axis mismatch"
    (Invalid_argument "Stats.assume_event_dist: axis mismatch") (fun () ->
      Stats.assume_event_dist stats ~attr:0 (Dist.uniform wrong))

let test_profile_weights () =
  let _, stats = setup () in
  (* x cells: {2} referenced by both (P0 via <=4, P1 via =2), [0,1] and
     [3,4] by P0 only, [5,9] D0. *)
  let w = Stats.profile_cell_weights stats ~attr:0 in
  let decomp = Stats.decomp stats in
  let cells = decomp.Decomp.overlays.(0).Genas_interval.Overlay.cells in
  Array.iteri
    (fun i (c : Genas_interval.Overlay.cell) ->
      let expected = float_of_int (List.length c.Genas_interval.Overlay.ids) /. 2.0 in
      close (Printf.sprintf "cell %d" i) expected w.(i))
    cells

let test_profile_weight_override () =
  let _, stats = setup () in
  let ncells =
    Array.length (Stats.decomp stats).Decomp.overlays.(0).Genas_interval.Overlay.cells
  in
  let forced = Array.make ncells 0.25 in
  Stats.assume_profile_weights stats ~attr:0 forced;
  Alcotest.(check (array (float 1e-9))) "override" forced
    (Stats.profile_cell_weights stats ~attr:0);
  Alcotest.check_raises "length guard"
    (Invalid_argument "Stats.assume_profile_weights: length mismatch") (fun () ->
      Stats.assume_profile_weights stats ~attr:0 [| 1.0 |])

let test_d0_event_prob () =
  let _, stats = setup () in
  (* x: referenced [0,4]; D0 [5,9] => uniform mass 0.5. *)
  close "x D0" 0.5 (Stats.d0_event_prob stats ~attr:0);
  (* With a don't-care profile on y the semantic D0 is empty. *)
  let _, stats_dc = setup ~with_dontcare:true () in
  close "y D0 zero with don't-care" 0.0 (Stats.d0_event_prob stats_dc ~attr:1)

let test_priorities_weight_pp () =
  let _, stats = setup () in
  (* Profiles 0 and 1; give profile 1 weight 3. The cell {2} (referenced
     by both) gets (1+3)/4; cells referenced by 0 only get 1/4. *)
  Stats.set_priority stats ~id:1 3.0;
  Alcotest.(check (float 1e-9)) "priority read back" 3.0 (Stats.priority stats ~id:1);
  let w = Stats.profile_cell_weights stats ~attr:0 in
  let decomp = Stats.decomp stats in
  let cells = decomp.Decomp.overlays.(0).Genas_interval.Overlay.cells in
  Array.iteri
    (fun i (c : Genas_interval.Overlay.cell) ->
      let expected =
        List.fold_left
          (fun acc id -> acc +. (if id = 1 then 3.0 else 1.0))
          0.0 c.Genas_interval.Overlay.ids
        /. 4.0
      in
      close (Printf.sprintf "cell %d" i) expected w.(i))
    cells;
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Stats.set_priority: negative priority") (fun () ->
      Stats.set_priority stats ~id:0 (-1.0))

let test_reset () =
  let schema, stats = setup () in
  observe_event schema stats
    (Event.create_exn schema [ ("x", Value.Int 1); ("y", Value.Int 1) ]);
  Stats.reset_observations stats;
  Alcotest.(check int) "zeroed" 0 (Stats.events_seen stats)

(* -- One event image ------------------------------------------------ *)

module Estimator = Genas_dist.Estimator

(* Attribute domains of every kind: int ranges inside the slot-table cap
   (exact and binned), at it and above it, with huge bounds, float
   ranges (degenerate too), enumerations and bool. *)
let gen_domain =
  let open QCheck.Gen in
  let cap = Image.max_table in
  oneof
    [
      map2 (fun lo w -> Domain.int_range ~lo ~hi:(lo + w)) (-50 -- 50) (0 -- 200);
      map2
        (fun lo w -> Domain.int_range ~lo ~hi:(lo + w))
        (-50 -- 50)
        (oneofl [ cap - 2; cap - 1; cap; cap + 1; 4 * cap ]);
      (* Bounds just inside ±2^53, the largest a domain admits. *)
      map2
        (fun lo w -> Domain.int_range ~lo ~hi:(lo + w))
        (oneofl [ (1 lsl 53) - 1000; -(1 lsl 53) + 1 ])
        (0 -- 900);
      map (fun w -> Domain.int_range ~lo:((1 lsl 53) - 1 - w) ~hi:((1 lsl 53) - 1))
        (0 -- 900);
      map2
        (fun lo w -> Domain.float_range ~lo ~hi:(lo +. w))
        (float_range (-10.0) 10.0)
        (oneof [ return 0.0; float_range 0.0 100.0 ]);
      map
        (fun n -> Domain.enum (List.init n (Printf.sprintf "v%d")))
        (1 -- 6);
      return Domain.bool_dom;
    ]

(* A value for [dom], in its domain or outside it: out of range, or of
   the wrong kind. *)
let gen_value dom =
  let open QCheck.Gen in
  let foreign =
    oneof
      [
        map (fun x -> Value.Int x) (-100 -- 100);
        map (fun f -> Value.Float f) (float_range (-20.0) 20.0);
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Str (Printf.sprintf "v%d" i)) (0 -- 8);
      ]
  in
  let native =
    match dom with
    | Domain.Int_range { lo; hi } ->
      map (fun x -> Value.Int x) (oneof [ (lo - 3) -- (lo + 300); (hi - 3) -- (hi + 3) ])
    | Domain.Float_range { lo; hi } ->
      oneof
        [
          map (fun f -> Value.Float f) (float_range (lo -. 1.0) (hi +. 1.0));
          map (fun x -> Value.Int x) (int_of_float lo - 1 -- (int_of_float hi + 1));
        ]
    | Domain.Enum vs ->
      map (fun i -> Value.Str (Printf.sprintf "v%d" i)) (0 -- Array.length vs)
    | Domain.Bool_dom -> map (fun b -> Value.Bool b) bool
  in
  frequency [ (5, native); (1, foreign) ]

(* An event carrying arbitrary values: validated against a schema that
   admits exactly them. A float range admits an int, also one beyond
   the ±2^53 an int range may span. *)
let loose_event values =
  let dom = function
    | Value.Int x -> Domain.float_range ~lo:(float_of_int x) ~hi:(float_of_int x)
    | Value.Float f -> Domain.float_range ~lo:f ~hi:f
    | Value.Str s -> Domain.enum [ s ]
    | Value.Bool _ -> Domain.bool_dom
  in
  let loose =
    Schema.create_exn
      (Array.to_list (Array.mapi (fun i v -> (Printf.sprintf "a%d" i, dom v)) values))
  in
  Event.of_values_exn loose values

let gen_case =
  let open QCheck.Gen in
  list_size (1 -- 4) gen_domain >>= fun doms ->
  let doms = Array.of_list doms in
  let event = map Array.of_list (flatten_l (Array.to_list (Array.map gen_value doms))) in
  map3 (fun bins events () -> (doms, bins, events)) (1 -- 100)
    (list_size (0 -- 60) event) unit

(* Bounds beyond ±2^53 would round as floats (near 2^60, by up to 128):
   nanosecond timestamps. The domain refuses them. *)
let test_out_of_bound_ranges () =
  List.iter
    (fun (lo, w) ->
      match Domain.int_range ~lo ~hi:(lo + w) with
      | _ -> Alcotest.failf "int[%d,%d] accepted" lo (lo + w)
      | exception Invalid_argument _ -> ())
    [ (1_700_000_000_000_000_000, 800); ((1 lsl 53) - 300, 900);
      (-(1 lsl 53) - 5, 10); ((1 lsl 60) - 400, 0); ((1 lsl 53) - 1, 1) ]

let prop_image_histograms =
  QCheck.Test.make ~name:"image histograms = coordinate histograms" ~count:200
    (QCheck.make gen_case)
    (fun (doms, bins, events) ->
      let schema =
        Schema.create_exn
          (Array.to_list (Array.mapi (fun i d -> (Printf.sprintf "a%d" i, d)) doms))
      in
      let stats = Stats.create ~bins (Decomp.build (Profile_set.create schema)) in
      let refs = Array.map (fun d -> Estimator.create ~bins (Axis.of_domain d)) doms in
      let img = Image.create schema in
      List.iter
        (fun values ->
          let e = loose_event values in
          Image.resolve img e;
          Stats.observe stats img;
          Array.iteri
            (fun i h ->
              Estimator.add h
                (Option.value ~default:Float.nan (Axis.coord doms.(i) values.(i))))
            refs)
        events;
      let got = (Stats.export stats).Stats.Export.hists in
      Array.for_all2
        (fun (g : Estimator.Export.t) r ->
          let r = Estimator.export r in
          g.exact = r.exact && g.bins = r.bins && g.total = r.total
          && g.dropped = r.dropped
          && Array.for_all2
               (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
               g.counts r.counts
          || QCheck.Test.fail_reportf "total %d/%d dropped %d/%d" g.total r.total
               g.dropped r.dropped)
        got refs)

let () =
  Alcotest.run "stats"
    [
      ( "event distributions",
        [
          Alcotest.test_case "defaults to uniform" `Quick test_default_uniform;
          Alcotest.test_case "observation" `Quick test_observation_estimates;
          Alcotest.test_case "assumed precedence" `Quick test_assumed_takes_precedence;
          Alcotest.test_case "axis guard" `Quick test_assume_axis_guard;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "profile distributions",
        [
          Alcotest.test_case "reference weights" `Quick test_profile_weights;
          Alcotest.test_case "override" `Quick test_profile_weight_override;
          Alcotest.test_case "priorities" `Quick test_priorities_weight_pp;
          Alcotest.test_case "D0 probability" `Quick test_d0_event_prob;
        ] );
      ( "event image",
        [
          QCheck_alcotest.to_alcotest prop_image_histograms;
          Alcotest.test_case "out-of-bound int ranges" `Quick
            test_out_of_bound_ranges;
        ] );
    ]
