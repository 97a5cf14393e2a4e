(* Distribution toolkit: exact probabilities, quantization, sampling,
   estimation, and the shape catalog. *)

module Prng = Genas_prng.Prng
module Axis = Genas_model.Axis
module Interval = Genas_interval.Interval
module Iset = Genas_interval.Iset
module Overlay = Genas_interval.Overlay
module Dist = Genas_dist.Dist
module Shape = Genas_dist.Shape
module Catalog = Genas_dist.Catalog
module Estimator = Genas_dist.Estimator

let cont = Axis.make ~discrete:false ~lo:0.0 ~hi:100.0

let disc = Axis.make ~discrete:true ~lo:0.0 ~hi:99.0

let itv ?(lc = true) ?(hc = true) lo hi =
  Interval.make_exn ~lo_closed:lc ~hi_closed:hc ~lo ~hi ()

let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let test_uniform () =
  let d = Dist.uniform cont in
  close "half" 0.5 (Dist.prob_interval d (itv 0.0 50.0));
  close "tenth" 0.1 (Dist.prob_interval d (itv 10.0 20.0));
  close "all" 1.0 (Dist.prob_interval d (itv 0.0 100.0));
  Alcotest.(check bool) "normalized" true (Dist.is_normalized d)

let test_uniform_discrete () =
  let d = Dist.uniform disc in
  close "one point" 0.01 (Dist.prob_interval d (Interval.point 42.0));
  close "ten points" 0.10 (Dist.prob_interval d (itv 0.0 9.0));
  (* Fractional sub-range of a discrete axis holds no mass between
     integers. *)
  close "empty gap" 0.0 (Dist.prob_interval d (itv ~lc:false ~hc:false 5.0 6.0))

let test_atoms () =
  let d = Dist.of_atoms disc [ (1.0, 3.0); (5.0, 1.0) ] in
  close "atom 1" 0.75 (Dist.prob_interval d (Interval.point 1.0));
  close "atom 5" 0.25 (Dist.prob_interval d (Interval.point 5.0));
  close "elsewhere" 0.0 (Dist.prob_interval d (itv 6.0 99.0));
  Alcotest.check_raises "outside axis"
    (Invalid_argument "Dist.of_atoms: coordinate outside axis") (fun () ->
      ignore (Dist.of_atoms disc [ (500.0, 1.0) ]))

let test_pieces_and_blocks () =
  let d =
    Dist.of_blocks cont [ (0.0, 30.0, 0.05); (30.0, 80.0, 0.60); (80.0, 100.0, 0.35) ]
  in
  close "first block" 0.05 (Dist.prob_interval d (itv ~hc:false 0.0 30.0));
  close "partial" 0.30 (Dist.prob_interval d (itv ~hc:false 30.0 55.0));
  Alcotest.(check bool) "normalized" true (Dist.is_normalized d);
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Dist.of_pieces: overlapping pieces") (fun () ->
      ignore (Dist.of_pieces cont [ (itv 0.0 10.0, 1.0); (itv 5.0 20.0, 1.0) ]))

let test_of_density () =
  (* Triangle density on [0,100]: P([0,50]) = 0.25. *)
  let d = Dist.of_density ~bins:512 cont (fun x -> x) in
  close ~eps:5e-3 "triangle left" 0.25 (Dist.prob_interval d (itv 0.0 50.0));
  (* All-zero density degenerates to uniform, not an error. *)
  let z = Dist.of_density cont (fun _ -> 0.0) in
  close "degenerate uniform" 0.5 (Dist.prob_interval z (itv 0.0 50.0))

let test_mix () =
  let d =
    Dist.mix
      [ (1.0, Dist.uniform cont); (3.0, Dist.of_pieces cont [ (itv 0.0 10.0, 1.0) ]) ]
  in
  close "peak mass" (0.25 *. 0.1 +. 0.75) (Dist.prob_interval d (itv 0.0 10.0));
  Alcotest.(check bool) "normalized" true (Dist.is_normalized d)

let test_cdf_quantile () =
  let d = Dist.uniform cont in
  close "cdf mid" 0.5 (Dist.cdf d 50.0);
  close "cdf below" 0.0 (Dist.cdf d (-1.0));
  close "cdf above" 1.0 (Dist.cdf d 200.0);
  close ~eps:1e-6 "quantile" 25.0 (Dist.quantile d 0.25);
  let atoms = Dist.of_atoms disc [ (10.0, 0.5); (20.0, 0.5) ] in
  close "atom cdf" 0.5 (Dist.cdf atoms 15.0);
  close "atom quantile" 10.0 (Dist.quantile atoms 0.3);
  close "atom quantile upper" 20.0 (Dist.quantile atoms 0.9);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Dist.quantile: q not in [0,1]") (fun () ->
      ignore (Dist.quantile d 1.5))

let test_mean () =
  close "uniform mean" 50.0 (Dist.mean (Dist.uniform cont));
  let d = Dist.of_atoms disc [ (10.0, 1.0); (20.0, 1.0) ] in
  close "atom mean" 15.0 (Dist.mean d)

let test_cell_probs () =
  let overlay =
    Overlay.build cont
      [ (0, Iset.of_interval (itv 0.0 10.0)); (1, Iset.of_interval (itv 50.0 100.0)) ]
  in
  let probs = Dist.cell_probs (Dist.uniform cont) overlay in
  let total = Array.fold_left ( +. ) 0.0 probs in
  close "sums to 1" 1.0 total;
  (* Cells: [0,10] (0.1), (10,50) (0.4), [50,100] (0.5). *)
  close "cell0" 0.1 probs.(0);
  close "cell1" 0.4 probs.(1);
  close "cell2" 0.5 probs.(2)

let test_sampling_matches_probs () =
  let d =
    Dist.mix
      [
        (0.3, Dist.of_atoms disc [ (7.0, 1.0) ]);
        (0.7, Dist.uniform disc);
      ]
  in
  let rng = Prng.create ~seed:3 in
  let hits7 = ref 0 and n = 50_000 in
  for _ = 1 to n do
    let x = Dist.sample rng d in
    if x < 0.0 || x > 99.0 || Float.rem x 1.0 <> 0.0 then
      Alcotest.fail "sample outside discrete axis";
    if x = 7.0 then incr hits7
  done;
  let expected = 0.3 +. (0.7 /. 100.0) in
  let got = float_of_int !hits7 /. float_of_int n in
  if Float.abs (got -. expected) > 0.01 then
    Alcotest.failf "atom frequency %.4f vs %.4f" got expected

(* ---------------------------- shapes ------------------------------ *)

let test_peak_mass () =
  let d = Shape.peak ~at:0.9 ~mass:0.95 ~width:0.05 cont in
  let m = Dist.prob_interval d (itv 85.0 95.0) in
  if m < 0.95 then Alcotest.failf "peak region mass %.4f < 0.95" m

let test_gauss_center () =
  let d = Shape.gauss () cont in
  close ~eps:0.02 "symmetric" 0.5 (Dist.prob_interval d (itv 0.0 50.0));
  let low = Shape.relocated_gauss `Low cont in
  Alcotest.(check bool) "low-shifted" true
    (Dist.prob_interval low (itv 0.0 50.0) > 0.9)

let test_ramps () =
  Alcotest.(check bool) "falling front-loaded" true
    (Dist.prob_interval (Shape.falling cont) (itv 0.0 50.0) > 0.7);
  Alcotest.(check bool) "rising back-loaded" true
    (Dist.prob_interval (Shape.rising cont) (itv 50.0 100.0) > 0.7)

let test_zipf_monotone () =
  let d = Shape.zipf () disc in
  let p k = Dist.prob_interval d (Interval.point k) in
  Alcotest.(check bool) "decreasing" true (p 0.0 > p 1.0 && p 1.0 > p 10.0)

let test_steps_guard () =
  Alcotest.check_raises "bad widths"
    (Invalid_argument "Shape.steps: widths must sum to 1") (fun () ->
      ignore (Shape.steps [ (0.5, 1.0) ] cont))

let test_catalog_complete () =
  List.iter
    (fun name ->
      let gen = Catalog.find_exn name in
      List.iter
        (fun axis ->
          let d = gen axis in
          if not (Dist.is_normalized d) then
            Alcotest.failf "%s not normalized" name)
        [ cont; disc ])
    Catalog.names;
  (* The Fig. 3 handles and the peak specs resolve. *)
  List.iter
    (fun n -> ignore (Dist.is_normalized ((Catalog.find_exn n) cont)))
    Catalog.figure3_names;
  Alcotest.(check bool) "95%high peak" true
    (Dist.prob_interval ((Catalog.find_exn "95%high") cont) (itv 85.0 95.0) >= 0.95);
  Alcotest.(check bool) "case-insensitive" true
    (Dist.prob_interval ((Catalog.find_exn "90%LOW") cont) (itv 5.0 15.0) >= 0.90);
  Alcotest.(check bool) "unknown" true (Catalog.find "nope" = None);
  Alcotest.(check bool) "bad pct" true (Catalog.find "0%high" = None)

let test_sampler_bit_identical () =
  (* The compiled sampler must consume the same generator stream and
     produce the same values as the reference sampler. *)
  List.iter
    (fun d ->
      let s = Dist.sampler d in
      let a = Prng.create ~seed:77 and b = Prng.create ~seed:77 in
      for _ = 1 to 5000 do
        let x = Dist.sample a d and y = s b in
        if x <> y then Alcotest.failf "diverged: %.9f vs %.9f" x y
      done)
    [
      Dist.uniform cont;
      Dist.uniform disc;
      Dist.of_atoms disc [ (1.0, 3.0); (5.0, 1.0); (90.0, 2.0) ];
      Shape.gauss () cont;
      Shape.peak ~at:0.9 ~mass:0.95 ~width:0.05 disc;
      Dist.mix [ (0.3, Dist.of_atoms disc [ (7.0, 1.0) ]); (0.7, Dist.uniform disc) ];
    ]

(* ----------------------------- joint ------------------------------ *)

module Joint = Genas_dist.Joint

let test_joint_guards () =
  Alcotest.check_raises "empty" (Invalid_argument "Joint.mixture: empty")
    (fun () -> ignore (Joint.mixture []));
  Alcotest.check_raises "arity"
    (Invalid_argument "Joint.mixture: arity mismatch") (fun () ->
      ignore
        (Joint.mixture
           [ (1.0, [| Dist.uniform cont |]); (1.0, [| Dist.uniform cont; Dist.uniform cont |]) ]));
  Alcotest.check_raises "axis"
    (Invalid_argument "Joint.mixture: axis mismatch") (fun () ->
      ignore
        (Joint.mixture
           [ (1.0, [| Dist.uniform cont |]); (1.0, [| Dist.uniform disc |]) ]))

let test_joint_marginal () =
  let j =
    Joint.mixture
      [
        (1.0, [| Dist.of_pieces cont [ (itv 0.0 10.0, 1.0) ]; Dist.uniform cont |]);
        (3.0, [| Dist.of_pieces cont [ (itv 90.0 100.0, 1.0) ]; Dist.uniform cont |]);
      ]
  in
  Alcotest.(check int) "arity" 2 (Joint.arity j);
  Alcotest.(check int) "components" 2 (Joint.components j);
  let m0 = Joint.marginal j ~attr:0 in
  close "low lobe" 0.25 (Dist.prob_interval m0 (itv 0.0 10.0));
  close "high lobe" 0.75 (Dist.prob_interval m0 (itv 90.0 100.0))

let test_joint_sampling_respects_correlation () =
  (* Component 1: both low; component 2: both high. Anti-diagonal
     quadrants must be empty. *)
  let j =
    Joint.mixture
      [
        ( 1.0,
          [| Dist.of_pieces cont [ (itv 0.0 10.0, 1.0) ];
             Dist.of_pieces cont [ (itv 0.0 10.0, 1.0) ] |] );
        ( 1.0,
          [| Dist.of_pieces cont [ (itv 90.0 100.0, 1.0) ];
             Dist.of_pieces cont [ (itv 90.0 100.0, 1.0) ] |] );
      ]
  in
  let rng = Prng.create ~seed:21 in
  for _ = 1 to 2000 do
    let c = Joint.sample rng j in
    let low x = x <= 10.0 and high x = x >= 90.0 in
    if not ((low c.(0) && low c.(1)) || (high c.(0) && high c.(1))) then
      Alcotest.failf "anti-correlated sample (%.1f, %.1f)" c.(0) c.(1)
  done

(* --------------------------- estimator ---------------------------- *)

let test_estimator_exact_discrete () =
  let small = Axis.make ~discrete:true ~lo:0.0 ~hi:9.0 in
  let e = Estimator.create small in
  List.iter (Estimator.add e) [ 1.0; 1.0; 1.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Estimator.count e);
  let d = Estimator.estimate e in
  close "atom 1" 0.75 (Dist.prob_interval d (Interval.point 1.0));
  close "atom 4" 0.25 (Dist.prob_interval d (Interval.point 4.0))

let test_estimator_dropped_and_reset () =
  let e = Estimator.create cont in
  Estimator.add e 50.0;
  Estimator.add e 500.0;
  Alcotest.(check int) "dropped" 1 (Estimator.dropped e);
  Estimator.reset e;
  Alcotest.(check int) "reset" 0 (Estimator.count e);
  Alcotest.check_raises "empty estimate"
    (Invalid_argument "Estimator.estimate: no observations") (fun () ->
      ignore (Estimator.estimate e))

let test_estimator_drops_nan () =
  (* A NaN coordinate is how statistics mark a value outside its domain;
     it must be dropped on every axis, not counted. Continuous axes
     used to count it: NaN passes neither [x < lo] nor [x > hi]. *)
  List.iter
    (fun (name, axis) ->
      let e = Estimator.create axis in
      Estimator.add e Float.nan;
      Alcotest.(check int) (name ^ ": total") 0 (Estimator.count e);
      Alcotest.(check int) (name ^ ": dropped") 1 (Estimator.dropped e))
    [
      ("continuous", Axis.make ~discrete:false ~lo:0.0 ~hi:1.0);
      ("discrete exact", Axis.make ~discrete:true ~lo:0.0 ~hi:9.0);
      ("discrete binned", Axis.make ~discrete:true ~lo:0.0 ~hi:999.0);
    ];
  (* The same through an event image: an out-of-domain value, of the
     right kind or not, is dropped. Each value travels in an event of a
     schema that admits it. (A NaN value cannot be carried in an event.) *)
  let module Value = Genas_model.Value in
  let module Domain = Genas_model.Domain in
  let module Image = Genas_model.Image in
  let dom = Domain.float_range ~lo:0.0 ~hi:1.0 in
  let loose v =
    Genas_model.Schema.create_exn
      [
        ( "x",
          match v with
          | Value.Str s -> Domain.enum [ s ]
          | _ -> Domain.float_range ~lo:(-5.0) ~hi:5.0 );
      ]
  in
  let e = Estimator.create (Axis.of_domain dom) in
  let img = Image.create (Genas_model.Schema.create_exn [ ("x", dom) ]) in
  List.iter
    (fun v ->
      Image.resolve img (Genas_model.Event.of_values_exn (loose v) [| v |]);
      Estimator.observe e img 0)
    Value.[ Float 2.0; Int 5; Float (-1.0); Str "x"; Float 0.5 ];
  Alcotest.(check int) "observe: total" 1 (Estimator.count e);
  Alcotest.(check int) "observe: dropped" 4 (Estimator.dropped e)

let test_estimator_any_bin_count () =
  (* Adjacent bins share their boundary exactly. Computing a bin's end
     as [start +. width] rounds past the next bin's start for some
     widths (0.2 on [-5, 5]), and the overlapping pieces made [estimate]
     raise. *)
  List.iter
    (fun (lo, hi) ->
      let axis = Axis.make ~discrete:false ~lo ~hi in
      List.iter
        (fun bins ->
          let e = Estimator.create ~bins axis in
          for i = 0 to 99 do
            Estimator.add e (lo +. ((hi -. lo) *. float_of_int i /. 99.0))
          done;
          let d = Estimator.estimate ~smoothing:0.5 e in
          Alcotest.(check bool)
            (Printf.sprintf "[%g,%g] %d bins normalized" lo hi bins)
            true (Dist.is_normalized d))
        [ 7; 33; 50; 64; 100; 128 ])
    [ (-5.0, 5.0); (0.0, 1.0); (0.1, 0.7); (-3.3, 1e3) ]

let test_estimator_recovers_distribution () =
  let d = Shape.gauss () cont in
  let e = Estimator.create ~bins:32 cont in
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 30_000 do
    Estimator.add e (Dist.sample rng d)
  done;
  let l1 = Estimator.l1_on_grid ~bins:32 d (Estimator.estimate e) in
  if l1 > 0.08 then Alcotest.failf "estimated L1 distance %.4f too large" l1

let test_l1_bounds () =
  let a = Dist.of_pieces cont [ (itv 0.0 10.0, 1.0) ] in
  let b = Dist.of_pieces cont [ (itv 90.0 100.0, 1.0) ] in
  close ~eps:1e-6 "disjoint L1 = 2" 2.0 (Estimator.l1_on_grid a b);
  close "self distance" 0.0 (Estimator.l1_on_grid a a)

let () =
  Alcotest.run "dist"
    [
      ( "dist",
        [
          Alcotest.test_case "uniform continuous" `Quick test_uniform;
          Alcotest.test_case "uniform discrete" `Quick test_uniform_discrete;
          Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "pieces/blocks" `Quick test_pieces_and_blocks;
          Alcotest.test_case "of_density" `Quick test_of_density;
          Alcotest.test_case "mix" `Quick test_mix;
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "cdf/quantile" `Quick test_cdf_quantile;
          Alcotest.test_case "cell quantization" `Quick test_cell_probs;
          Alcotest.test_case "sampling frequencies" `Quick
            test_sampling_matches_probs;
          Alcotest.test_case "compiled sampler bit-identical" `Quick
            test_sampler_bit_identical;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "peak" `Quick test_peak_mass;
          Alcotest.test_case "gauss" `Quick test_gauss_center;
          Alcotest.test_case "ramps" `Quick test_ramps;
          Alcotest.test_case "zipf" `Quick test_zipf_monotone;
          Alcotest.test_case "steps guard" `Quick test_steps_guard;
          Alcotest.test_case "catalog" `Quick test_catalog_complete;
        ] );
      ( "joint",
        [
          Alcotest.test_case "guards" `Quick test_joint_guards;
          Alcotest.test_case "marginals" `Quick test_joint_marginal;
          Alcotest.test_case "correlation in samples" `Quick
            test_joint_sampling_respects_correlation;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "exact discrete" `Quick test_estimator_exact_discrete;
          Alcotest.test_case "dropped/reset" `Quick test_estimator_dropped_and_reset;
          Alcotest.test_case "NaN dropped" `Quick test_estimator_drops_nan;
          Alcotest.test_case "any bin count" `Quick test_estimator_any_bin_count;
          Alcotest.test_case "recovers distribution" `Quick
            test_estimator_recovers_distribution;
          Alcotest.test_case "L1 bounds" `Quick test_l1_bounds;
        ] );
    ]
