(* The adaptive component: drift detection and re-optimization. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile_set = Genas_profile.Profile_set
module Prng = Genas_prng.Prng
module Engine = Genas_core.Engine
module Adaptive = Genas_core.Adaptive
module Stats = Genas_core.Stats
module Axis = Genas_model.Axis
module Interval = Genas_interval.Interval
module Dist = Genas_dist.Dist
module Shape = Genas_dist.Shape
module Estimator = Genas_dist.Estimator
module Workload = Genas_expt.Workload

let schema () = Schema.create_exn [ ("x", Domain.int_range ~lo:0 ~hi:99) ]

(* The drift clock lives in the engine; these read it and drive it. *)
let clock engine = Option.get (Engine.adaptive engine)

let checks engine = Adaptive.checks (clock engine)

let rebuilds engine = Adaptive.rebuilds (clock engine)

let last_drift engine = Adaptive.last_drift (clock engine)

(* A drift check now, off the clock's cadence, re-planning as the
   engine's own checks do; [true] if it re-planned. *)
let force_check engine =
  Adaptive.check (clock engine) (Engine.stats engine) ~replan:(fun () ->
      Engine.swap_now engine;
      Engine.stats engine)

let make_adaptive ?(threshold = 0.4) () =
  let s = schema () in
  let pset = Profile_set.create s in
  List.iter
    (fun v ->
      ignore
        (Result.get_ok (Profile_set.add_spec pset [ ("x", Predicate.Eq (Value.Int v)) ])))
    [ 5; 20; 60; 90 ];
  ( s,
    Engine.create
      ~adaptive:{ Adaptive.warmup = 100; check_every = 50; drift_threshold = threshold }
      pset )

let feed s adaptive rng n ~lo ~hi =
  for _ = 1 to n do
    ignore
      (Engine.match_event adaptive
         (Event.create_exn s [ ("x", Value.Int (Prng.int_in rng ~lo ~hi)) ]))
  done

let make_with_policy ~warmup ~check_every ~threshold =
  let s = schema () in
  let pset = Profile_set.create s in
  List.iter
    (fun v ->
      ignore
        (Result.get_ok (Profile_set.add_spec pset [ ("x", Predicate.Eq (Value.Int v)) ])))
    [ 5; 20; 60; 90 ];
  ( s,
    Engine.create
      ~adaptive:{ Adaptive.warmup; check_every; drift_threshold = threshold }
      pset )

let test_first_check_at_warmup () =
  (* The first drift check fires at exactly [seen = warmup], even when
     warmup < check_every: the cadence counter must not delay the
     bootstrap by a full check interval. *)
  let s, adaptive = make_with_policy ~warmup:10 ~check_every:50 ~threshold:0.4 in
  let rng = Prng.create ~seed:11 in
  feed s adaptive rng 9 ~lo:0 ~hi:99;
  Alcotest.(check int) "no check before warmup" 0 (checks adaptive);
  feed s adaptive rng 1 ~lo:0 ~hi:99;
  Alcotest.(check int) "first check at warmup" 1 (checks adaptive);
  Alcotest.(check int) "bootstrap rebuild" 1 (rebuilds adaptive);
  (* Subsequent checks honor check_every, counted from the last one. *)
  feed s adaptive rng 49 ~lo:0 ~hi:99;
  Alcotest.(check int) "not due again yet" 1 (checks adaptive);
  feed s adaptive rng 1 ~lo:0 ~hi:99;
  Alcotest.(check int) "second check after check_every" 2
    (checks adaptive)

let test_last_drift_clamped () =
  (* The very first check sees infinite drift (no plan yet). The raw
     infinity must still beat any threshold — even one above the L1
     range bound of 2 — while the reported last_drift is clamped to
     2.0 so no inf can leak into reports or exporters. *)
  let s, adaptive = make_with_policy ~warmup:10 ~check_every:50 ~threshold:3.0 in
  let rng = Prng.create ~seed:12 in
  feed s adaptive rng 10 ~lo:0 ~hi:99;
  Alcotest.(check int) "bootstrap rebuild despite threshold > 2" 1
    (rebuilds adaptive);
  Alcotest.(check (float 0.0)) "last_drift clamped to 2.0" 2.0
    (last_drift adaptive);
  Alcotest.(check bool) "clamped value is finite" true
    (Float.is_finite (last_drift adaptive))

let test_policy_validation () =
  let s, _ = make_adaptive () in
  ignore s;
  let pset = Profile_set.create (schema ()) in
  Alcotest.check_raises "bad policy"
    (Invalid_argument "Adaptive.create: malformed policy") (fun () ->
      ignore
        (Engine.create
           ~adaptive:{ Adaptive.warmup = -1; check_every = 10; drift_threshold = 0.1 }
           pset))

let test_first_check_always_rebuilds () =
  (* Before any adaptive rebuild the tree was planned without data, so
     the first due check must re-plan (drift = infinity). *)
  let s, adaptive = make_adaptive () in
  let rng = Prng.create ~seed:1 in
  feed s adaptive rng 99 ~lo:0 ~hi:99;
  Alcotest.(check int) "not yet due" 0 (rebuilds adaptive);
  feed s adaptive rng 1 ~lo:0 ~hi:99;
  Alcotest.(check int) "rebuilt at warmup" 1 (rebuilds adaptive)

let test_stable_stream_no_further_rebuilds () =
  let s, adaptive = make_adaptive () in
  let rng = Prng.create ~seed:2 in
  (* Early rebuilds are legitimate while the histogram is noisy; once
     the sample is large the estimate stabilizes and rebuilds stop. *)
  feed s adaptive rng 4000 ~lo:0 ~hi:99;
  let settled = rebuilds adaptive in
  Alcotest.(check bool) "bootstrapped" true (settled >= 1);
  feed s adaptive rng 4000 ~lo:0 ~hi:99;
  Alcotest.(check bool) "no further rebuilds on a stable stream" true
    (rebuilds adaptive - settled <= 1);
  Alcotest.(check bool) "drift small" true (last_drift adaptive < 0.4)

let test_drift_triggers_rebuild () =
  let s, adaptive = make_adaptive () in
  let rng = Prng.create ~seed:3 in
  feed s adaptive rng 500 ~lo:0 ~hi:99;
  let before = rebuilds adaptive in
  (* Concentrate the stream on a narrow band: the histogram shifts. *)
  feed s adaptive rng 2000 ~lo:85 ~hi:95;
  Alcotest.(check bool) "rebuilt on drift" true (rebuilds adaptive > before)

let test_force_check () =
  let s, adaptive = make_adaptive () in
  let rng = Prng.create ~seed:4 in
  feed s adaptive rng 10 ~lo:0 ~hi:99;
  (* Never planned from data yet: force triggers the bootstrap. *)
  Alcotest.(check bool) "forced" true (force_check adaptive);
  Alcotest.(check int) "one rebuild" 1 (rebuilds adaptive);
  (* Immediately after planning, drift is ~0. *)
  Alcotest.(check bool) "not forced again" false (force_check adaptive)

let test_matching_correct_across_rebuilds () =
  let s, adaptive = make_adaptive ~threshold:0.05 () in
  let rng = Prng.create ~seed:5 in
  (* Alternate narrow bands to force many rebuilds; matching must stay
     exact throughout. *)
  for round = 0 to 5 do
    let lo = if round mod 2 = 0 then 0 else 80 in
    for _ = 1 to 300 do
      let x = Prng.int_in rng ~lo ~hi:(lo + 19) in
      let matched =
        Engine.match_event adaptive
          (Event.create_exn s [ ("x", Value.Int x) ])
      in
      let expected =
        List.filteri (fun _ v -> v = x) [ 5; 20; 60; 90 ] <> []
      in
      Alcotest.(check bool) "match correctness" expected (matched <> [])
    done
  done;
  Alcotest.(check bool) "rebuilt several times" true
    (rebuilds adaptive >= 2)

(* ------------------ drift from live histogram counts ------------------ *)

(* The drift measure as it was computed before drift checks read the
   histogram counts: both distributions queried with [Dist.prob_interval]
   on every cell of the 64-cell grid (one cell per point on a discrete
   axis with at most 64 points). *)
let reference_l1 a b =
  let ax = Dist.axis a and bins = 64 in
  let cell_l1 itv =
    Float.abs (Dist.prob_interval a itv -. Dist.prob_interval b itv)
  in
  let acc = ref 0.0 in
  if ax.Axis.discrete && Axis.size ax <= float_of_int bins then
    for i = 0 to int_of_float (Axis.size ax) - 1 do
      acc := !acc +. cell_l1 (Interval.point (ax.Axis.lo +. float_of_int i))
    done
  else begin
    let lo = ax.Axis.lo and hi = ax.Axis.hi in
    let width = (hi -. lo) /. float_of_int bins in
    for i = 0 to bins - 1 do
      let x = lo +. (float_of_int i *. width) in
      let y = if i = bins - 1 then hi else x +. width in
      acc :=
        !acc
        +. cell_l1 (Interval.make_exn ~hi_closed:(i = bins - 1) ~lo:x ~hi:y ())
    done
  end;
  !acc

(* One attribute of each layout: int with an exact histogram, int with a
   binned one, float, and enum. *)
let mixed_schema () =
  Schema.create_exn
    [
      ("small", Domain.int_range ~lo:0 ~hi:20);
      ("wide", Domain.int_range ~lo:0 ~hi:299);
      ("real", Domain.float_range ~lo:(-5.0) ~hi:5.0);
      ("kind", Domain.enum [ "a"; "b"; "c"; "d"; "e" ]);
    ]

let mixed_engine ?bins ?adaptive s =
  let pset = Profile_set.create s in
  List.iter
    (fun spec -> ignore (Result.get_ok (Profile_set.add_spec pset [ spec ])))
    [ ("small", Predicate.Eq (Value.Int 3)); ("kind", Predicate.Eq (Value.Str "b")) ];
  Engine.create ?bins ?adaptive pset

(* Events skewed towards the low end of every axis, the more so the
   closer [bias] is to 1. *)
let mixed_event s rng ~bias =
  let pick n =
    let x = Prng.float_in rng ~lo:0.0 ~hi:1.0 in
    let f = (x *. x *. bias) +. (x *. (1.0 -. bias)) in
    Stdlib.min (n - 1) (int_of_float (float_of_int n *. f))
  in
  Event.create_exn s
    [
      ("small", Value.Int (pick 21));
      ("wide", Value.Int (pick 300));
      ("real", Value.Float (-5.0 +. (10.0 *. float_of_int (pick 1000) /. 1000.0)));
      ("kind", Value.Str [| "a"; "b"; "c"; "d"; "e" |].(pick 5));
    ]

let assume stats s ~attr ~mu =
  let ax = Axis.of_domain (Schema.attribute s attr).Schema.domain in
  Stats.assume_event_dist stats ~attr (Shape.gauss ~mu_frac:mu () ax)

type drift_case = {
  bins : int option;  (** engine histogram bins; [None] = default 64 *)
  n_planned : int;  (** events observed before planning (0 = empty) *)
  n_now : int;  (** events observed after planning *)
  assume_planned : int option;  (** attribute assumed when planning *)
  assume_now : int option;  (** attribute assumed when checking *)
  seed : int;
}

let drift_case_gen =
  QCheck.Gen.(
    let* bins = oneofl [ None; Some 8; Some 50; Some 64; Some 100; Some 400 ] in
    let* n_planned = oneof [ return 0; int_range 1 400 ] in
    let* n_now = oneof [ return 0; int_range 1 400 ] in
    let attr = opt ~ratio:0.3 (int_bound 3) in
    let* assume_planned = attr in
    let* assume_now = attr in
    let+ seed = int_bound 1_000_000 in
    { bins; n_planned; n_now; assume_planned; assume_now; seed })

let print_case c =
  let o = function None -> "-" | Some i -> string_of_int i in
  Printf.sprintf "bins=%s planned=%d now=%d assume=%s/%s seed=%d"
    (o c.bins) c.n_planned c.n_now (o c.assume_planned) (o c.assume_now) c.seed

(* Per attribute, [Stats.grid_drift] against the planned grid equals the
   reference distance between the planned and the current distribution;
   through [Adaptive], [last_drift] is their maximum. *)
let prop_drift_matches_reference =
  QCheck.Test.make ~name:"drift from counts = Dist-per-cell reference" ~count:200
    (QCheck.make ~print:print_case drift_case_gen)
    (fun c ->
      let s = mixed_schema () in
      let engine =
        mixed_engine ?bins:c.bins
          ~adaptive:
            { Adaptive.warmup = max_int; check_every = 1; drift_threshold = 10.0 }
          s
      in
      let rng = Prng.create ~seed:c.seed in
      let feed n ~bias =
        for _ = 1 to n do
          ignore (Engine.match_event engine (mixed_event s rng ~bias))
        done
      in
      feed c.n_planned ~bias:0.2;
      Option.iter
        (fun attr -> assume (Engine.stats engine) s ~attr ~mu:0.3)
        c.assume_planned;
      ignore (force_check engine);
      let stats = Engine.stats engine in
      let planned = Array.init 4 (fun attr -> Stats.event_dist stats ~attr) in
      Option.iter (fun attr -> Stats.clear_assumed stats ~attr) c.assume_planned;
      feed c.n_now ~bias:0.9;
      Option.iter (fun attr -> assume stats s ~attr ~mu:0.7) c.assume_now;
      let worst = ref 0.0 in
      Array.iteri
        (fun attr d ->
          let now = Stats.event_dist stats ~attr in
          let want = reference_l1 d now in
          let got = Stats.grid_drift stats ~attr (Estimator.grid d) in
          if Float.abs (got -. want) > 1e-12 then
            QCheck.Test.fail_reportf "attr %d: drift %h, reference %h" attr got
              want;
          if Float.abs (Estimator.l1_on_grid d now -. want) > 1e-12 then
            QCheck.Test.fail_reportf "attr %d: l1_on_grid differs" attr;
          worst := Float.max !worst want)
        planned;
      ignore (force_check engine);
      Float.abs (last_drift engine -. !worst) <= 1e-12)

(* Recorded before drift checks read the histogram counts: the same
   stream must give the same checks, rebuilds and drift, bit for bit. *)
let test_drift_pinned () =
  let s, adaptive = make_adaptive () in
  let rng = Prng.create ~seed:3 in
  feed s adaptive rng 500 ~lo:0 ~hi:99;
  feed s adaptive rng 2000 ~lo:85 ~hi:95;
  Alcotest.(check int) "checks" 49 (checks adaptive);
  Alcotest.(check int) "rebuilds" 5 (rebuilds adaptive);
  Alcotest.(check (float 0.0)) "last_drift" 0x1.81dc7b9db3992p-3
    (last_drift adaptive);
  (* A component restored from an export measures the same drift as
     the one that kept running. *)
  feed s adaptive rng 30 ~lo:0 ~hi:40;
  let _, restored = make_adaptive () in
  let stats = Engine.stats in
  Result.get_ok (Stats.import (stats restored) (Stats.export (stats adaptive)));
  Result.get_ok
    (Adaptive.import (clock restored) (stats restored)
       (Adaptive.export (clock adaptive)));
  Alcotest.(check bool) "no rebuild" false (force_check adaptive);
  Alcotest.(check bool) "restored: no rebuild" false
    (force_check restored);
  Alcotest.(check (float 0.0)) "drift" 0x1.5b3b316815fb2p-3
    (last_drift adaptive);
  Alcotest.(check (float 0.0)) "restored drift" 0x1.5b3b316815fb2p-3
    (last_drift restored)

(* ------------------------- baseline rule ----------------------------- *)

(* Paper-style Gaussian profiles over 3 integer attributes of 100
   points, and events uniform over [lo, 99] on every attribute. *)
let paper_gen rng s p =
  let axes =
    Array.init 3 (fun i -> Axis.of_domain (Schema.attribute s i).Schema.domain)
  in
  Workload.gen_profiles rng s
    {
      Workload.p;
      dontcare = Array.make 3 0.3;
      value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
      range_width = None;
    }

let paper_event rng s ~lo =
  Event.create_exn s
    (List.init 3 (fun i ->
         (Printf.sprintf "a%d" i, Value.Int (Prng.int_in rng ~lo ~hi:99))))

(* The hists of the baseline, as the clock exports them, rebuilt into
   grids and measured against the live statistics: the drift a check
   against that baseline reads. *)
let drift_from_export stats (hists : Estimator.Export.t array) =
  let axes = (Stats.decomp stats).Genas_filter.Decomp.axes in
  let worst = ref 0.0 in
  Array.iteri
    (fun attr h ->
      let est = Result.get_ok (Estimator.of_export axes.(attr) h) in
      let grid = Estimator.grid (Stats.observed_dist est) in
      worst := Float.max !worst (Stats.grid_drift stats ~attr grid))
    hists;
  !worst

let test_fold_resets_baseline () =
  (* A rent fold re-plans from the skewed history while the clock's
     last plan is the uniform-era bootstrap. The next scheduled check
     must measure against the fold's plan, which fits the stream. *)
  let s = Workload.normalized_schema ~attrs:3 ~points:100 () in
  let rng = Prng.create ~seed:1 in
  let engine =
    Engine.create
      ~adaptive:{ Adaptive.warmup = 500; check_every = 500; drift_threshold = 0.25 }
      (paper_gen rng s 200)
  in
  let seen = ref 0 in
  let feed n ~lo =
    for _ = 1 to n do
      ignore (Engine.match_event engine (paper_event rng s ~lo));
      incr seen
    done
  in
  feed 500 ~lo:0;
  Alcotest.(check int) "bootstrap re-plan" 1 (rebuilds engine);
  feed 300 ~lo:80;
  Profile_set.iter (paper_gen rng s 400) (fun _ p ->
      ignore (Engine.add_profile engine p));
  while Engine.pending_rebuild engine > 0 do feed 1 ~lo:80 done;
  (* The fold ran before the last event was observed. *)
  let at_fold = !seen - 1 in
  Alcotest.(check bool) "folded before the next check" true (!seen < 1000);
  let planned = (Adaptive.export (clock engine)).Adaptive.Export.planned in
  feed (1000 - !seen) ~lo:80;
  Alcotest.(check int) "checked at 1000" 2 (checks engine);
  Alcotest.(check int) "no drift re-plan after the fold" 1 (rebuilds engine);
  let planned = Option.get planned in
  Alcotest.(check (float 0.0)) "baseline holds the fold's history"
    (float_of_int at_fold)
    (Array.fold_left ( +. ) 0.0 planned.(0).Estimator.Export.counts);
  Alcotest.(check (float 0.0)) "drift against the fold's plan"
    (drift_from_export (Engine.stats engine) planned)
    (last_drift engine);
  Alcotest.(check bool) "under the threshold" true (last_drift engine < 0.25)

let test_empty_plan_stays_stale () =
  (* Subscribing, then compiling before any event (what a deployment
     does), plans from empty statistics: the first check re-plans. *)
  let s = Workload.normalized_schema ~attrs:3 ~points:100 () in
  let rng = Prng.create ~seed:2 in
  let engine =
    Engine.create
      ~adaptive:{ Adaptive.warmup = 100; check_every = 100; drift_threshold = 0.25 }
      (Profile_set.create s)
  in
  Profile_set.iter (paper_gen rng s 200) (fun _ p ->
      ignore (Engine.add_profile engine p));
  Engine.refresh_keeping_history engine;
  Alcotest.(check int) "compiled" 0 (Engine.pending_rebuild engine);
  for _ = 1 to 100 do
    ignore (Engine.match_event engine (paper_event rng s ~lo:0))
  done;
  Alcotest.(check int) "first check" 1 (checks engine);
  Alcotest.(check int) "re-planned at the first check" 1 (rebuilds engine);
  Alcotest.(check (float 0.0)) "measured as never planned" 2.0
    (last_drift engine)

(* ------------------------- allocation guard -------------------------- *)

(* The paper's table: 500 Gaussian equality profiles with 0.3
   don't-care over 3 integer attributes of 100 points, uniform events. *)
let paper_table () =
  let s = Workload.normalized_schema ~attrs:3 ~points:100 () in
  let axes =
    Array.init 3 (fun i -> Axis.of_domain (Schema.attribute s i).Schema.domain)
  in
  let rng = Prng.create ~seed:1 in
  let pset =
    Workload.gen_profiles rng s
      {
        Workload.p = 500;
        dontcare = Array.make 3 0.3;
        value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
        range_width = None;
      }
  in
  let events =
    Array.init 1024 (fun _ ->
        Event.create_exn s
          (List.init 3 (fun i ->
               (Printf.sprintf "a%d" i, Value.Int (Prng.int_in rng ~lo:0 ~hi:99)))))
  in
  (pset, events)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_allocation_guard () =
  let pset, events = paper_table () in
  let engine = Engine.create ~adaptive:Adaptive.default_policy pset in
  for i = 0 to 19_999 do
    ignore (Engine.match_event engine events.(i land 1023))
  done;
  let stats = Engine.stats engine in
  let n = 10_000 in
  let w =
    minor_words (fun () ->
        for i = 0 to n - 1 do
          Stats.observe_event stats events.(i land 1023)
        done)
  in
  (* The measurement's own boxed floats are all that may show. *)
  if w > 16.0 then
    Alcotest.failf "observe_event allocated %.0f words over %d events" w n;
  (* Settle on a plan, so the scheduled check below decides not to
     rebuild: the events that bring it due are a sliver of those the
     plan saw, from the same stream. *)
  while force_check engine do () done;
  let rebuilt = rebuilds engine in
  let checked = checks engine in
  let every = Adaptive.default_policy.Adaptive.check_every in
  let batch = Array.sub events 0 every in
  let w = minor_words (fun () -> Engine.replay_batch engine batch) in
  Alcotest.(check int) "one scheduled check" (checked + 1) (checks engine);
  Alcotest.(check int) "no rebuild" rebuilt (rebuilds engine);
  if w > 1000.0 then Alcotest.failf "a drift check allocated %.0f words" w

let () =
  Alcotest.run "adaptive"
    [
      ( "adaptive",
        [
          Alcotest.test_case "policy validation" `Quick test_policy_validation;
          Alcotest.test_case "first check at warmup" `Quick test_first_check_at_warmup;
          Alcotest.test_case "last_drift clamped" `Quick test_last_drift_clamped;
          Alcotest.test_case "bootstrap rebuild" `Quick test_first_check_always_rebuilds;
          Alcotest.test_case "stable stream" `Quick test_stable_stream_no_further_rebuilds;
          Alcotest.test_case "drift rebuild" `Quick test_drift_triggers_rebuild;
          Alcotest.test_case "force_check" `Quick test_force_check;
          Alcotest.test_case "correct across rebuilds" `Quick
            test_matching_correct_across_rebuilds;
          Alcotest.test_case "drift pinned" `Quick test_drift_pinned;
          Alcotest.test_case "fold resets baseline" `Quick
            test_fold_resets_baseline;
          Alcotest.test_case "empty plan stays stale" `Quick
            test_empty_plan_stays_stale;
          Alcotest.test_case "allocation guard" `Quick test_allocation_guard;
          QCheck_alcotest.to_alcotest prop_drift_matches_reference;
        ] );
    ]
