(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (printed as plain-text tables; see EXPERIMENTS.md
   for the paper-vs-measured record) and runs Bechamel wall-clock
   benches of the matchers.

   Usage: main.exe [fig3|fig4a|fig4b|fig5|fig6a|fig6b|tv|ablation|
                    baselines|timing|all]... (default: all) *)

module Figures = Genas_expt.Figures
module Report = Genas_expt.Report
module Workload = Genas_expt.Workload
module Prng = Genas_prng.Prng
module Schema = Genas_model.Schema
module Axis = Genas_model.Axis
module Event = Genas_model.Event
module Dist = Genas_dist.Dist
module Shape = Genas_dist.Shape
module Decomp = Genas_filter.Decomp
module Tree = Genas_filter.Tree
module Flat = Genas_filter.Flat
module Naive = Genas_filter.Naive
module Counting = Genas_filter.Counting
module Stats = Genas_core.Stats
module Selectivity = Genas_core.Selectivity
module Reorder = Genas_core.Reorder
module Profile_set = Genas_profile.Profile_set
module Broker = Genas_ens.Broker
module Trace = Genas_obs.Trace

(* ------------------------------------------------------------------ *)
(* Bechamel timing suite: one Test.make per matcher / per table-sized
   workload.                                                           *)

let timing_workload () =
  let schema = Workload.normalized_schema ~attrs:3 ~points:100 () in
  let axes =
    Array.init 3 (fun i -> Axis.of_domain (Schema.attribute schema i).Schema.domain)
  in
  let rng = Prng.create ~seed:99 in
  let pset =
    Workload.gen_profiles rng schema
      {
        Workload.p = 500;
        dontcare = [| 0.3; 0.3; 0.3 |];
        value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
        range_width = None;
      }
  in
  let decomp = Decomp.build pset in
  let stats = Stats.create decomp in
  let dists = Array.map Dist.uniform axes in
  (* A fixed pool of pre-built events so the benches measure matching,
     not sampling. *)
  let events =
    Array.init 1024 (fun _ ->
        let coords = Workload.event_coords rng dists in
        Event.of_values_exn schema
          (Array.mapi
             (fun i c -> Axis.value (Schema.attribute schema i).Schema.domain c)
             coords))
  in
  (schema, pset, decomp, stats, events)

(* A broker over the timing workload's 500 profiles with null
   handlers: [sample = None] is the pre-tracing publish path,
   [Some 0.0] attaches a never-sampling tracer (the disabled-tracing
   cost), [Some 1.0] traces every publish into the flight recorder. *)
let publish_broker schema pset sample =
  let b =
    match sample with
    | None -> Broker.create schema
    | Some sample ->
      Broker.create ~tracer:(Trace.create ~sample ~seed:100 ()) schema
  in
  Profile_set.iter pset (fun id p ->
      ignore
        (Broker.subscribe b ~subscriber:(string_of_int id) ~profile:p
           (fun _ -> ())));
  b

let timing_tests () =
  let open Bechamel in
  let schema, pset, decomp, stats, events = timing_workload () in
  let idx = ref 0 in
  let next_event () =
    let e = events.(!idx) in
    idx := (!idx + 1) land 1023;
    e
  in
  let naive = Naive.build pset in
  let counting = Counting.build pset in
  let tree_nat = Tree.build decomp (Tree.default_config decomp) in
  let tree_v1 =
    Reorder.build stats
      { Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
        value_choice = `Measure Selectivity.V1 }
  in
  let tree_bin =
    Reorder.build stats
      { Reorder.attr_choice = Reorder.Attr_natural; value_choice = `Binary }
  in
  (* Batches of 32 events per run: single matches sit in the noise
     floor of the clock. Reported ns/run is therefore per 32 events. *)
  let match_test name f =
    Test.make ~name
      (Staged.stage (fun () ->
           for _ = 1 to 32 do
             f (next_event ())
           done))
  in
  Test.make_grouped ~name:"genas"
    [
      (* Fig. 4/5 matchers (value strategies). *)
      match_test "match/naive" (fun e -> ignore (Naive.match_event naive e));
      match_test "match/counting" (fun e -> ignore (Counting.match_event counting e));
      match_test "match/tree-natural" (fun e -> ignore (Tree.match_event tree_nat e));
      match_test "match/tree-V1+A2" (fun e -> ignore (Tree.match_event tree_v1 e));
      match_test "match/tree-binary" (fun e -> ignore (Tree.match_event tree_bin e));
      (* Flat-vs-pointer: the same trees, compiled (one reusable cursor
         per test, as in the engine's steady state). *)
      (let flat = Flat.compile tree_nat in
       let cur = Flat.cursor flat in
       match_test "match/flat-natural" (fun e ->
           ignore (Flat.match_into flat cur e)));
      (let flat = Flat.compile tree_v1 in
       let cur = Flat.cursor flat in
       match_test "match/flat-V1+A2" (fun e ->
           ignore (Flat.match_into flat cur e)));
      (let flat = Flat.compile tree_bin in
       let cur = Flat.cursor flat in
       match_test "match/flat-binary" (fun e ->
           ignore (Flat.match_into flat cur e)));
      (* Tracing overhead on the full publish path (matching +
         supervised delivery): untraced vs tracer-attached-but-never-
         sampling vs fully traced. *)
      (let b = publish_broker schema pset None in
       match_test "publish/untraced" (fun e -> ignore (Broker.publish b e)));
      (let b = publish_broker schema pset (Some 0.0) in
       match_test "publish/traced-off" (fun e -> ignore (Broker.publish b e)));
      (let b = publish_broker schema pset (Some 1.0) in
       match_test "publish/traced" (fun e -> ignore (Broker.publish b e)));
      (* TV1: construction cost. *)
      Test.make ~name:"build/tree-500p"
        (Staged.stage (fun () ->
             ignore (Tree.build decomp (Tree.default_config decomp))));
      Test.make ~name:"build/decomp-500p"
        (Staged.stage (fun () -> ignore (Decomp.build pset)));
    ]

let run_timing () =
  let open Bechamel in
  let tests = timing_tests () in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Printf.sprintf "%.0f" x
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      rows := [ name; ns; r2 ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  Report.table ~title:"Wall-clock (Bechamel, monotonic clock)"
    ~columns:[ "benchmark"; "ns/run"; "r²" ]
    ~notes:[ "500 profiles, 3 attributes, uniform events; match/* runs \
             cover 32 events each" ]
    rows


(* ------------------------------------------------------------------ *)
(* Perfbench: the matcher and publish-path throughput suite,
   as a table ("perf") or as the BENCH_*.json document ("json").      *)

let perf_events () =
  match Sys.getenv_opt "GENAS_BENCH_EVENTS" with
  | Some s -> (try int_of_string s with _ -> 50_000)
  | None -> 50_000

let run_perf () = Genas_expt.Perfbench.(table (run ~events:(perf_events ()) ()))

let run_perf_json () =
  print_string
    (Genas_obs.Json.to_string
       Genas_expt.Perfbench.(to_json (run ~events:(perf_events ()) ())));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Metrics snapshot: the timing workload replayed through an
   instrumented engine, so wall-clock tables and the observability
   layer's own percentiles can be compared side by side.              *)

let run_metrics_snapshot () =
  let _, pset, _, _, events = timing_workload () in
  let registry = Genas_obs.Metrics.create () in
  let engine = Genas_core.Engine.create ~metrics:registry pset in
  let n = Array.length events in
  for i = 0 to (8 * n) - 1 do
    ignore (Genas_core.Engine.match_event engine events.(i mod n))
  done;
  print_string (Genas_obs.Metrics.to_json registry)

let tables_of_target = function
  | "fig3" -> [ Figures.fig3 () ]
  | "fig4a" -> [ Figures.fig4a () ]
  | "fig4b" -> [ Figures.fig4b () ]
  | "fig5" -> Figures.fig5 ()
  | "fig6a" -> [ Figures.fig6a () ]
  | "fig6b" -> [ Figures.fig6b () ]
  | "tv" -> [ Figures.tv_scenarios () ]
  | "ablation" -> [ Figures.ablation_sharing () ]
  | "baselines" -> [ Figures.baseline_comparison () ]
  | "outlook" -> [ Figures.outlook_strategies () ]
  | "quench" -> [ Figures.ablation_quench () ]
  | "routing" -> [ Figures.ablation_routing () ]
  | "adaptive" -> [ Figures.ablation_adaptive () ]
  | "correlated" -> [ Figures.correlated () ]
  | "dontcare" -> [ Figures.dontcare_influence () ]
  | "queueing" -> [ Figures.queueing () ]
  | "orderings8" -> [ Figures.orderings8 () ]
  | "fragility" -> [ Figures.fragility () ]
  | "timing" -> [ run_timing () ]
  | "perf" -> [ run_perf () ]
  | other ->
    Printf.eprintf "unknown bench target %S\n" other;
    exit 2

let csv_name target i n =
  if n = 1 then target ^ ".csv" else Printf.sprintf "%s_%d.csv" target (i + 1)

let run_figure ?csv_dir target =
  if target = "metrics" then run_metrics_snapshot ()
  else if target = "json" then run_perf_json ()
  else begin
  let tables = tables_of_target target in
  let n = List.length tables in
  List.iteri
    (fun i table ->
      Report.print table;
      match csv_dir with
      | None -> ()
      | Some dir ->
        let path = Filename.concat dir (csv_name target i n) in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Report.to_csv table)))
    tables
  end

let all_targets =
  [ "fig3"; "fig4a"; "fig4b"; "fig5"; "fig6a"; "fig6b"; "tv"; "ablation";
    "baselines"; "outlook"; "quench"; "routing"; "adaptive"; "correlated"; "dontcare"; "queueing"; "orderings8"; "fragility"; "timing"; "perf"; "metrics" ]

let () =
  let rest =
    match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest
  in
  let csv_dir, rest =
    match rest with
    | "--csv" :: dir :: rest -> (Some dir, rest)
    | rest -> (None, rest)
  in
  let args = match rest with [] | "all" :: _ -> all_targets | rest -> rest in
  List.iter (run_figure ?csv_dir) args
