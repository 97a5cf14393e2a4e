(* Environmental monitoring — the paper's running example (§3) plus its
   catastrophe-warning scenario (§1): sensors deliver equally
   distributed readings, but subscriptions concentrate on a small range
   of dangerous values, so the distribution-based tree beats both the
   natural and the binary-search tree.

   Run with: dune exec examples/environmental_monitoring.exe *)

module Prng = Genas_prng.Prng
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Axis = Genas_model.Axis
module Dist = Genas_dist.Dist
module Shape = Genas_dist.Shape
module Profile_set = Genas_profile.Profile_set
module Lang = Genas_profile.Lang
module Decomp = Genas_filter.Decomp
module Stats = Genas_core.Stats
module Selectivity = Genas_core.Selectivity
module Cost = Genas_core.Cost
module Reorder = Genas_core.Reorder
module Engine = Genas_core.Engine
module Adaptive = Genas_core.Adaptive

let schema () =
  Schema.create_exn
    [
      ("temperature", Domain.float_range ~lo:(-30.0) ~hi:50.0);
      ("humidity", Domain.float_range ~lo:0.0 ~hi:100.0);
      ("radiation", Domain.float_range ~lo:1.0 ~hi:100.0);
    ]

(* Catastrophe-warning subscriptions: many users watch the extreme
   ranges of each attribute. *)
let catastrophe_profiles schema =
  let pset = Profile_set.create schema in
  let rng = Prng.create ~seed:2024 in
  for i = 1 to 60 do
    let kind = Prng.int rng ~bound:3 in
    let src =
      match kind with
      | 0 ->
        Printf.sprintf "temperature >= %.1f" (Prng.float_in rng ~lo:38.0 ~hi:46.0)
      | 1 ->
        Printf.sprintf "humidity >= %.1f && temperature >= %.1f"
          (Prng.float_in rng ~lo:90.0 ~hi:97.0)
          (Prng.float_in rng ~lo:30.0 ~hi:36.0)
      | _ ->
        Printf.sprintf "radiation >= %.1f" (Prng.float_in rng ~lo:80.0 ~hi:95.0)
    in
    match Lang.parse_profile ~name:(Printf.sprintf "watch%d" i) schema src with
    | Ok p -> ignore (Profile_set.add pset p)
    | Error e -> failwith e
  done;
  pset

let () =
  let schema = schema () in
  let pset = catastrophe_profiles schema in
  let decomp = Decomp.build pset in
  let stats = Stats.create decomp in

  (* Sensor readings are roughly uniform; a heat event spike would
     shift them. Assume uniform for planning. *)
  Array.iteri
    (fun attr ax -> Stats.assume_event_dist stats ~attr (Shape.equal_dist ax))
    decomp.Decomp.axes;

  Format.printf
    "Catastrophe warning service: %d profiles over %d attributes@.@."
    (Profile_set.size pset) (Decomp.arity decomp);

  let evaluate label spec =
    let tree = Reorder.build stats spec in
    let r = Cost.evaluate_with_stats tree stats in
    Format.printf "  %-34s %6.2f ops/event (match prob %.3f)@." label
      r.Cost.per_event r.Cost.match_prob
  in
  Format.printf "Expected filter effort per event (analytic, Eq. 2):@.";
  evaluate "natural order"
    { Reorder.attr_choice = Reorder.Attr_natural;
      value_choice = `Measure Selectivity.V_natural_asc };
  evaluate "binary search"
    { Reorder.attr_choice = Reorder.Attr_natural; value_choice = `Binary };
  evaluate "event order (V1)"
    { Reorder.attr_choice = Reorder.Attr_natural;
      value_choice = `Measure Selectivity.V1 };
  evaluate "V1 + attribute reordering (A2)"
    { Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
      value_choice = `Measure Selectivity.V1 };
  evaluate "V1 + exhaustive order (A3)"
    { Reorder.attr_choice = Reorder.Attr_a3;
      value_choice = `Measure Selectivity.V1 };

  (* Adaptive run: feed a uniform stream, then shift to a heatwave
     distribution and watch the engine re-optimize. *)
  Format.printf "@.Adaptive engine under distribution drift:@.";
  let engine =
    Engine.create
      ~spec:
        { Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
          value_choice = `Measure Selectivity.V1 }
      ~adaptive:{ Adaptive.warmup = 300; check_every = 100; drift_threshold = 0.3 }
      pset
  in
  (* The engine's drift clock: counts checks and drift re-plans. *)
  let adaptive = Option.get (Engine.adaptive engine) in
  let rng = Prng.create ~seed:7 in
  let feed label dists n =
    let before = Adaptive.rebuilds adaptive in
    for _ = 1 to n do
      let coords = Array.map (fun d -> Dist.sample rng d) dists in
      let values =
        Array.mapi
          (fun i c ->
            Axis.value (Schema.attribute schema i).Schema.domain c)
          coords
      in
      ignore
        (Engine.match_event engine
           (Genas_model.Event.of_values_exn schema values))
    done;
    Format.printf
      "  %-22s %4d events: %d rebuild(s), last drift %.3f@." label n
      (Adaptive.rebuilds adaptive - before)
      (Adaptive.last_drift adaptive)
  in
  let axes = decomp.Decomp.axes in
  feed "uniform readings" (Array.map Dist.uniform axes) 600;
  let heatwave =
    [|
      Shape.peak ~at:0.95 ~mass:0.8 ~width:0.1 axes.(0);
      Shape.gauss ~mu_frac:0.8 () axes.(1);
      Dist.uniform axes.(2);
    |]
  in
  feed "heatwave readings" heatwave 600;
  Format.printf "@.Filtered %d events in total; %.2f comparisons/event.@."
    (Genas_core.Engine.ops engine).Genas_filter.Ops.events
    (Genas_filter.Ops.per_event (Genas_core.Engine.ops engine))
