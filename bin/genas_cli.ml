(* GENAS command-line interface.

   Subcommands:
     genas figures [--csv DIR] [TARGET...]
                                 regenerate the paper's tables/figures
     genas dists [NAME]          list the distribution catalog / show one
     genas match ...             filter an event file against a profile file
     genas plan ...              show the tree configuration the engine picks

   Schema files contain one attribute per line: "name : DOMAIN" with
   DOMAIN in int[lo,hi] | float[lo,hi] | enum{a,b,c} | bool.
   Profile files: "name : PREDICATES" in the profile language.
   Event files: one event per line ("attr = v, ...").
   Lines starting with '#' are comments. *)

module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Axis = Genas_model.Axis
module Interval = Genas_interval.Interval
module Lang = Genas_profile.Lang
module Profile_set = Genas_profile.Profile_set
module Dist = Genas_dist.Dist
module Catalog = Genas_dist.Catalog
module Decomp = Genas_filter.Decomp
module Ops = Genas_filter.Ops
module Tree = Genas_filter.Tree
module Order = Genas_filter.Order
module Stats = Genas_core.Stats
module Selectivity = Genas_core.Selectivity
module Cost = Genas_core.Cost
module Reorder = Genas_core.Reorder
module Figures = Genas_expt.Figures
module Report = Genas_expt.Report
module Workload = Genas_expt.Workload
module Store = Genas_ens.Store
module Broker = Genas_ens.Broker
module Event = Genas_model.Event
module Shape = Genas_dist.Shape
module Obs = Genas_obs

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* File loading is the library's Store format; only the profile-name
   mapping needed for output labels is recovered here.                 *)

let load_schema = Store.load_schema

let load_profiles schema path =
  let* pset = Store.load_profiles schema path in
  let names =
    Profile_set.fold pset ~init:[] ~f:(fun acc id p ->
        match p.Genas_profile.Profile.name with
        | Some n -> (id, n) :: acc
        | None -> acc)
  in
  Ok (pset, List.rev names)

let load_events schema path =
  let* events = Store.load_events schema path in
  Ok (List.map (fun e -> (Lang.event_to_string schema e, e)) events)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("genas: " ^ msg);
    exit 1

(* ------------------------------------------------------------------ *)
(* Subcommand implementations.                                         *)

let strategy_of_name = function
  | "natural" -> Ok (`Measure Selectivity.V_natural_asc)
  | "v1" | "event" -> Ok (`Measure Selectivity.V1)
  | "v2" | "profile" -> Ok (`Measure Selectivity.V2)
  | "v3" -> Ok (`Measure Selectivity.V3)
  | "binary" -> Ok `Binary
  | "hashed" -> Ok `Hashed
  | "auto" -> Ok `Auto
  | other -> Error (Printf.sprintf "unknown strategy %S" other)

let attr_choice_of_name = function
  | "natural" -> Ok Reorder.Attr_natural
  | "a1" -> Ok (Reorder.Attr_measured (Selectivity.A1, `Descending))
  | "a2" -> Ok (Reorder.Attr_measured (Selectivity.A2, `Descending))
  | "a3" -> Ok Reorder.Attr_a3
  | other -> Error (Printf.sprintf "unknown attribute measure %S" other)

let run_match schema_path profiles_path events_path strategy attr_measure
    explain =
  let schema = or_die (load_schema schema_path) in
  let pset, names = or_die (load_profiles schema profiles_path) in
  let events = or_die (load_events schema events_path) in
  let value_choice = or_die (strategy_of_name strategy) in
  let attr_choice = or_die (attr_choice_of_name attr_measure) in
  let stats = Stats.create (Decomp.build pset) in
  let tree = Reorder.build stats { Reorder.attr_choice; value_choice } in
  let ops = Ops.create () in
  List.iter
    (fun (line, event) ->
      let matched = Tree.match_event ~ops tree event in
      let labels =
        List.map
          (fun id ->
            Option.value ~default:(string_of_int id) (List.assoc_opt id names))
          matched
      in
      Printf.printf "%-50s -> %s\n" line
        (if labels = [] then "(no match)" else String.concat ", " labels);
      if explain then
        Format.printf "%a@." (Genas_core.Explain.pp tree)
          (Genas_core.Explain.trace tree event))
    events;
  Printf.printf "\n%d events, %d comparisons (%s per event)\n"
    ops.Ops.events ops.Ops.comparisons
    (Report.f2 (Ops.per_event ops))

let run_plan schema_path profiles_path event_dists =
  let schema = or_die (load_schema schema_path) in
  let pset, _names = or_die (load_profiles schema profiles_path) in
  let decomp = Decomp.build pset in
  let stats = Stats.create decomp in
  (match event_dists with
  | [] -> ()
  | names ->
    if List.length names <> Schema.arity schema then
      or_die (Error "need one event distribution per attribute");
    List.iteri
      (fun attr name ->
        let gen = Catalog.find_exn name in
        Stats.assume_event_dist stats ~attr (gen decomp.Decomp.axes.(attr)))
      names);
  Printf.printf "attributes (natural order):\n";
  Array.iter
    (fun (a : Schema.attribute) ->
      Printf.printf "  %d: %-14s %s  A1=%.3f A2=%.3f cells=%d d0-share=%.3f\n"
        a.Schema.index a.Schema.name
        (Format.asprintf "%a" Domain.pp a.Schema.domain)
        (Selectivity.attribute_selectivity stats ~attr:a.Schema.index
           Selectivity.A1)
        (Selectivity.attribute_selectivity stats ~attr:a.Schema.index
           Selectivity.A2)
        (Decomp.referenced_count decomp ~attr:a.Schema.index)
        (Decomp.d0_share decomp ~attr:a.Schema.index))
    (Schema.attributes schema);
  List.iter
    (fun (label, spec) ->
      let tree = Reorder.build stats spec in
      let r = Cost.evaluate_with_stats tree stats in
      Printf.printf
        "%-22s order=[%s]  strategies=[%s]  E[ops/event]=%.3f  E[matches]=%.3f\n"
        label
        (String.concat ";"
           (Array.to_list (Array.map string_of_int tree.Tree.config.Tree.attr_order)))
        (String.concat ";"
           (Array.to_list
              (Array.map
                 (Format.asprintf "%a" Order.pp_strategy)
                 tree.Tree.config.Tree.strategies)))
        r.Cost.per_event r.Cost.expected_matches)
    [
      ("natural/natural",
       { Reorder.attr_choice = Reorder.Attr_natural;
         value_choice = `Measure Selectivity.V_natural_asc });
      ("natural/binary",
       { Reorder.attr_choice = Reorder.Attr_natural; value_choice = `Binary });
      ("A2-desc/V1",
       { Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
         value_choice = `Measure Selectivity.V1 });
      ("A2-desc/V3",
       { Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
         value_choice = `Measure Selectivity.V3 });
      ("A2-desc/auto",
       { Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
         value_choice = `Auto });
    ]

let run_simulate schema_path profiles_path event_dists strategy
    attr_measure events =
  let schema = or_die (load_schema schema_path) in
  let pset, _ = or_die (load_profiles schema profiles_path) in
  let value_choice = or_die (strategy_of_name strategy) in
  let attr_choice = or_die (attr_choice_of_name attr_measure) in
  let decomp = Decomp.build pset in
  let stats = Stats.create decomp in
  let n = Schema.arity schema in
  let dists =
    match event_dists with
    | [] -> Array.map (fun ax -> Dist.uniform ax) decomp.Decomp.axes
    | names ->
      if List.length names <> n then
        or_die (Error "need one --event-dist per attribute");
      Array.of_list
        (List.mapi
           (fun attr name ->
             (Catalog.find_exn name) decomp.Decomp.axes.(attr))
           names)
  in
  Array.iteri (fun attr d -> Stats.assume_event_dist stats ~attr d) dists;
  let tree = Reorder.build stats { Reorder.attr_choice; value_choice } in
  let analytic = Cost.evaluate_with_stats tree stats in
  let rng = Genas_prng.Prng.create ~seed:42 in
  let sim =
    match events with
    | Some e -> Genas_expt.Simulate.run_fixed rng tree dists ~events:e
    | None -> Genas_expt.Simulate.run rng tree dists
  in
  Printf.printf "profiles: %d   attributes: %d   strategy: %s/%s\n"
    (Profile_set.size pset) n strategy attr_measure;
  Printf.printf "analytic  (Eq. 2): %.4f ops/event, %.4f matches/event\n"
    analytic.Cost.per_event analytic.Cost.expected_matches;
  Printf.printf
    "simulated (%d events%s): %.4f ops/event (95%% CI ±%.4f), %.4f \
     matches/event\n"
    sim.Genas_expt.Simulate.events
    (if sim.Genas_expt.Simulate.converged then ", converged" else ", cap hit")
    sim.Genas_expt.Simulate.per_event sim.Genas_expt.Simulate.ci_halfwidth
    sim.Genas_expt.Simulate.match_rate

let run_dists name =
  match name with
  | None ->
    List.iter print_endline Catalog.names;
    Printf.printf "(plus peak specs of the form NN%%high / NN%%low)\n"
  | Some name ->
    let gen = Catalog.find_exn name in
    let axis = Axis.make ~discrete:false ~lo:0.0 ~hi:100.0 in
    let dist = gen axis in
    let bins = 50 in
    let probs =
      List.init bins (fun i ->
          let a = 100.0 *. float_of_int i /. float_of_int bins in
          let b = 100.0 *. float_of_int (i + 1) /. float_of_int bins in
          Dist.prob_interval dist
            (Interval.make_exn ~hi_closed:(i = bins - 1) ~lo:a ~hi:b ()))
    in
    Printf.printf "%s on the normalized domain [0,100]:\n  %s\n" name
      (Report.sparkline probs);
    List.iteri
      (fun i p -> if p > 0.02 then Printf.printf "  bin %2d: %.3f\n" i p)
      probs

let run_figures csv_dir targets =
  let targets =
    if targets = [] || targets = [ "all" ] then List.map fst Figures.all
    else targets
  in
  List.iter
    (fun name ->
      match List.assoc_opt name Figures.all with
      | Some tables ->
        let tables = tables () in
        let n = List.length tables in
        List.iteri
          (fun i table ->
            Report.print table;
            Option.iter
              (fun dir ->
                let file =
                  if n = 1 then name ^ ".csv"
                  else Printf.sprintf "%s_%d.csv" name (i + 1)
                in
                Out_channel.with_open_text (Filename.concat dir file)
                  (fun oc -> Out_channel.output_string oc (Report.to_csv table)))
              csv_dir)
          tables
      | None -> or_die (Error (Printf.sprintf "unknown figure %S" name)))
    targets

(* ------------------------------------------------------------------ *)
(* Metrics: a deterministic simulated run through an instrumented
   broker (engine + adaptive component + quench), then one snapshot in
   the requested exporter format.                                      *)

let run_metrics format events seed =
  if events <= 0 then or_die (Error "need a positive --events count");
  let registry = Obs.Metrics.create () in
  let schema = Workload.normalized_schema ~attrs:3 ~points:100 () in
  let axes =
    Array.init 3 (fun i ->
        Axis.of_domain (Schema.attribute schema i).Schema.domain)
  in
  let rng = Genas_prng.Prng.create ~seed in
  let broker =
    Broker.create ~metrics:registry
      ~adaptive:
        { Genas_core.Adaptive.warmup = 100; check_every = 50;
          drift_threshold = 0.2 }
      schema
  in
  let profiles =
    Workload.gen_profiles rng schema
      {
        Workload.p = 100;
        dontcare = [| 0.3; 0.3; 0.3 |];
        value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
        range_width = None;
      }
  in
  Profile_set.iter profiles (fun id p ->
      ignore
        (Broker.subscribe broker
           ~subscriber:(Printf.sprintf "group-%d" (id mod 4))
           ~profile:p
           (fun _ -> ())));
  let publish_phase dists n =
    for _ = 1 to n do
      let coords = Workload.event_coords rng dists in
      let values =
        Array.mapi
          (fun i c -> Axis.value (Schema.attribute schema i).Schema.domain c)
          coords
      in
      ignore (Broker.publish_quenched broker (Event.of_values_exn schema values))
    done
  in
  (* Phase 1: uniform events. Phase 2: a hot-spot — the histogram
     drifts, so the adaptive component re-optimizes at least once. *)
  publish_phase (Array.map Dist.uniform axes) (events / 2);
  publish_phase
    (Array.map (fun ax -> Shape.peak ~at:0.85 ~mass:0.9 ~width:0.05 ax) axes)
    (events - (events / 2));
  match format with
  | "json" -> print_string (Obs.Metrics.to_json registry)
  | "prom" | "prometheus" -> print_string (Obs.Metrics.to_prometheus registry)
  | other ->
    or_die (Error (Printf.sprintf "unknown metrics format %S (json|prom)" other))

(* ------------------------------------------------------------------ *)
(* Perf bench: the flat-vs-pointer / 1-vs-N-domain throughput suite of
   Genas_expt.Perfbench, as a table or as the BENCH_*.json document.   *)

let parse_scaling spec =
  match
    String.split_on_char ',' spec
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map (fun s -> int_of_string_opt (String.trim s))
  with
  | [] -> Error "empty --scaling list"
  | l when List.exists Option.is_none l ->
    Error ("bad --scaling list: " ^ spec)
  | l ->
    let points = List.filter_map Fun.id l in
    if List.exists (fun p -> p <= 0) points then
      Error "scaling populations must be positive"
    else Ok points

let run_bench json events out profiles scaling baseline_max =
  if events <= 0 then or_die (Error "need a positive --events count");
  if profiles <= 0 then or_die (Error "need a positive --profiles count");
  if baseline_max < 0 then
    or_die (Error "need a non-negative --baseline-max population");
  let t = Genas_expt.Perfbench.run ~profiles ~events () in
  let scale =
    Option.map
      (fun spec ->
        let points = or_die (parse_scaling spec) in
        Genas_expt.Perfbench.scale ~points ~baseline_max ())
      scaling
  in
  let output =
    if json then begin
      let doc =
        Obs.Json.to_string (Genas_expt.Perfbench.to_json ?scale t) ^ "\n"
      in
      (* The strict validator gates every machine-readable emission, so
         a malformed BENCH_*.json can never be written. *)
      (match Obs.Json.validate doc with
      | Ok () -> ()
      | Error e -> or_die (Error ("bench --json produced invalid JSON: " ^ e)));
      doc
    end
    else Format.asprintf "%a" Report.render (Genas_expt.Perfbench.table t)
  in
  match out with
  | None -> print_string output
  | Some path ->
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc output)

(* ------------------------------------------------------------------ *)
(* Fault-injection demo: a routed network driven through a seeded
   fault plan. Identical seeds replay identical traces, which the cram
   suite pins byte-for-byte.                                           *)

let run_faults seed events handler_fail drop dup delay pause retries =
  if events <= 0 then or_die (Error "need a positive --events count");
  let module Router = Genas_ens.Router in
  let module Fault = Genas_ens.Fault in
  let module Supervise = Genas_ens.Supervise in
  let module Deadletter = Genas_ens.Deadletter in
  let module Profile = Genas_profile.Profile in
  let module Predicate = Genas_profile.Predicate in
  let module Value = Genas_model.Value in
  let schema =
    Schema.create_exn
      [
        ("topic", Domain.enum [ "weather"; "traffic"; "energy" ]);
        ("severity", Domain.int_range ~lo:0 ~hi:9);
      ]
  in
  let faults, retry =
    try
      ( Fault.plan ~seed
          {
            Fault.none with
            Fault.handler_failure = [ ("flaky", handler_fail) ];
            link_drop = drop;
            link_duplicate = dup;
            link_delay = delay;
            broker_pause = pause;
          },
        Supervise.retry_policy ~max_attempts:retries ~jitter_seed:seed
          ~trip_after:4 ~cooldown:8 () )
    with Invalid_argument msg -> or_die (Error msg)
  in
  let net =
    try Router.line schema ~nodes:4 ~retry ~faults
    with Invalid_argument msg -> or_die (Error msg)
  in
  let sub at who preds =
    ignore
      (Router.subscribe net ~at ~subscriber:who
         ~profile:(Profile.create_exn schema preds)
         (fun _ -> ()))
  in
  sub 3 "ops" [ ("topic", Predicate.Eq (Value.Str "weather")) ];
  sub 2 "flaky" [ ("severity", Predicate.Ge (Value.Int 5)) ];
  sub 0 "audit" [ ("severity", Predicate.Ge (Value.Int 8)) ];
  let rng = Genas_prng.Prng.create ~seed in
  let topics = [| "weather"; "traffic"; "energy" |] in
  for i = 0 to events - 1 do
    let ev =
      Event.create_exn ~time:(float_of_int i) schema
        [
          ("topic", Value.Str (Genas_prng.Prng.choice rng topics));
          ("severity", Value.Int (Genas_prng.Prng.int rng ~bound:10));
        ]
    in
    ignore (Router.publish net ~at:(Genas_prng.Prng.int rng ~bound:4) ev)
  done;
  let s = Router.supervisor net in
  let dlq = Router.deadletter net in
  Printf.printf "topology 0-1-2-3, %d events, seed %d\n" events seed;
  Printf.printf "delivered %d  event-messages %d\n"
    (Router.notifications net) (Router.event_messages net);
  Printf.printf "link faults: %d dropped, %d duplicated, %d delayed; %d broker pauses\n"
    (Router.link_drops net) (Router.link_duplicates net)
    (Router.link_delays net) (Router.broker_pauses net);
  Printf.printf
    "supervision: %d failed attempts, %d retries, %d dead-lettered, %d \
     short-circuited, %d circuit trips\n"
    (Supervise.failures s) (Supervise.retries s) (Supervise.deadlettered s)
    (Supervise.short_circuited s) (Supervise.trips s);
  Printf.printf "dead-letter queue: %d held (capacity %d, %d dropped)\n"
    (Deadletter.length dlq) (Deadletter.capacity dlq) (Deadletter.dropped dlq);
  (match Deadletter.entries dlq with
  | [] -> ()
  | e :: _ ->
    Printf.printf "  oldest: #%d %s after %d attempt(s): %s\n"
      e.Deadletter.seq e.Deadletter.notification.Genas_ens.Notification.subscriber
      e.Deadletter.attempts e.Deadletter.error);
  let trace = Fault.trace faults in
  Printf.printf "fault trace: %d injected\n" (Fault.injected faults);
  List.iteri
    (fun i f ->
      if i < 5 then Format.printf "  %a@." Fault.pp_fault f)
    trace;
  Printf.printf "circuit(flaky) = %s\n"
    (match Supervise.circuit s "flaky" with
    | Supervise.Closed -> "closed"
    | Supervise.Open -> "open"
    | Supervise.Half_open -> "half-open")

(* ------------------------------------------------------------------ *)
(* Durability demo: a journaled broker driven through a seeded
   workload (optionally dying at an injected crash point), and the
   recovery that rebuilds it from the journal directory.              *)

let journal_schema () =
  Schema.create_exn
    [
      ("topic", Domain.enum [ "weather"; "traffic"; "energy" ]);
      ("severity", Domain.int_range ~lo:0 ~hi:9);
    ]

(* The flaky subscriber fails deterministically (severity 9), not
   probabilistically: the recovered broker re-binds the same handler
   and reproduces the same outcomes without sharing a fault stream. *)
let journal_handlers ~subscriber =
  if String.equal subscriber "flaky" then fun n ->
    match n.Genas_ens.Notification.event.Event.values.(1) with
    | Genas_model.Value.Int 9 -> failwith "refusing severity 9"
    | _ -> ()
  else fun (_ : Genas_ens.Notification.t) -> ()

let journal_subscribe b =
  let module Broker = Genas_ens.Broker in
  let module Profile = Genas_profile.Profile in
  let module Predicate = Genas_profile.Predicate in
  let module Value = Genas_model.Value in
  let schema = Broker.schema b in
  let sub who preds =
    ignore
      (Broker.subscribe b ~subscriber:who
         ~profile:(Profile.create_exn schema preds)
         (journal_handlers ~subscriber:who))
  in
  sub "ops" [ ("topic", Predicate.Eq (Value.Str "weather")) ];
  sub "flaky" [ ("severity", Predicate.Ge (Value.Int 5)) ]

let journal_summary b =
  let module Broker = Genas_ens.Broker in
  let module Journal = Genas_ens.Journal in
  let module Deadletter = Genas_ens.Deadletter in
  Printf.printf "published %d  notifications %d  dead-letters %d\n"
    (Broker.published b) (Broker.notifications b)
    (Deadletter.length (Broker.deadletter b));
  match Broker.wal b with
  | None -> ()
  | Some j ->
    Printf.printf "journal: %d ops logged, %d snapshots\n"
      (Journal.ops_logged j)
      (Journal.snapshots_written j)

let crash_plan ~seed crash crash_prob =
  let module Fault = Genas_ens.Fault in
  match crash with
  | None -> None
  | Some kind ->
    let spec =
      match kind with
      | "before-fsync" ->
        { Fault.none with Fault.crash_before_fsync = crash_prob }
      | "after-journal" ->
        { Fault.none with Fault.crash_after_journal = crash_prob }
      | "mid-snapshot" ->
        { Fault.none with Fault.crash_mid_snapshot = crash_prob }
      | other ->
        or_die
          (Error
             (Printf.sprintf
                "unknown --crash %S (before-fsync|after-journal|mid-snapshot)"
                other))
    in
    (try Some (Fault.plan ~seed spec)
     with Invalid_argument msg -> or_die (Error msg))

let run_journal dir seed events snapshot_every crash crash_prob =
  let module Broker = Genas_ens.Broker in
  let module Journal = Genas_ens.Journal in
  let module Fault = Genas_ens.Fault in
  let module Value = Genas_model.Value in
  if events <= 0 then or_die (Error "need a positive --events count");
  let faults = crash_plan ~seed crash crash_prob in
  let journal =
    try Journal.config ~snapshot_every dir
    with Invalid_argument msg -> or_die (Error msg)
  in
  let schema = journal_schema () in
  let b = Broker.create ?faults ~journal schema in
  journal_subscribe b;
  let rng = Genas_prng.Prng.create ~seed in
  let topics = [| "weather"; "traffic"; "energy" |] in
  let crashed = ref None in
  (try
     for i = 0 to events - 1 do
       let ev =
         Event.create_exn ~time:(float_of_int i) schema
           [
             ("topic", Value.Str (Genas_prng.Prng.choice rng topics));
             ("severity", Value.Int (Genas_prng.Prng.int rng ~bound:10));
           ]
       in
       ignore (Broker.publish b ev)
     done;
     Broker.close b
   with Fault.Crashed point -> crashed := Some point);
  Printf.printf "journaled workload: %d events, seed %d, snapshot every %d\n"
    events seed snapshot_every;
  (match !crashed with
  | None -> ()
  | Some p -> Printf.printf "crashed: %s\n" (Fault.crash_point_name p));
  journal_summary b

let run_recover dir =
  let module Broker = Genas_ens.Broker in
  let module Journal = Genas_ens.Journal in
  let journal = Journal.config dir in
  let schema = journal_schema () in
  match Broker.recover ~handlers:journal_handlers ~journal schema with
  | Error e -> or_die (Error ("recover: " ^ e))
  | Ok b ->
    let j = Option.get (Broker.wal b) in
    Printf.printf "recovered: %d ops replayed, %d corrupt tail(s) truncated\n"
      (Journal.replayed_ops j) (Journal.truncations j);
    Printf.printf "subscriptions %d\n" (Broker.subscription_count b);
    journal_summary b;
    Broker.close b

(* ------------------------------------------------------------------ *)
(* Tracing demo: the journal workload through a traced broker, under a
   deterministic counter clock — identical seeds produce byte-identical
   Chrome trace JSON, which the cram suite pins with cmp.             *)

let run_trace chrome events seed sample dir crash crash_prob =
  let module Broker = Genas_ens.Broker in
  let module Journal = Genas_ens.Journal in
  let module Fault = Genas_ens.Fault in
  let module Value = Genas_model.Value in
  if events <= 0 then or_die (Error "need a positive --events count");
  if crash <> None && dir = None then
    or_die (Error "--crash needs a journal directory (--dir)");
  (* Every Clock.now_ns call advances a fake clock by 1µs: span
     timestamps depend only on the call sequence, never the host. *)
  let counter = ref 0L in
  Obs.Clock.set_source (fun () ->
      counter := Int64.add !counter 1_000L;
      !counter);
  Fun.protect ~finally:Obs.Clock.reset_source @@ fun () ->
  let tracer =
    try Obs.Trace.create ~sample ~capacity:8 ~seed ()
    with Invalid_argument msg -> or_die (Error msg)
  in
  let faults = crash_plan ~seed crash crash_prob in
  let journal =
    match dir with
    | None -> None
    | Some d -> (
      try Some (Journal.config ~snapshot_every:16 d)
      with Invalid_argument msg -> or_die (Error msg))
  in
  let schema = journal_schema () in
  let b = Broker.create ?faults ?journal ~tracer schema in
  journal_subscribe b;
  let rng = Genas_prng.Prng.create ~seed in
  let topics = [| "weather"; "traffic"; "energy" |] in
  let crashed = ref None in
  (try
     for i = 0 to events - 1 do
       let ev =
         Event.create_exn ~time:(float_of_int i) schema
           [
             ("topic", Value.Str (Genas_prng.Prng.choice rng topics));
             ("severity", Value.Int (Genas_prng.Prng.int rng ~bound:10));
           ]
       in
       ignore (Broker.publish b ev)
     done;
     if journal <> None then Broker.close b
   with Fault.Crashed point -> crashed := Some point);
  if chrome then print_string (Obs.Trace.to_chrome tracer)
  else begin
    Printf.printf
      "traced workload: %d events, seed %d, sample %g: %d traces started, %d \
       sampled, %d completed, %d evicted\n"
      events seed sample (Obs.Trace.started tracer) (Obs.Trace.sampled tracer)
      (Obs.Trace.completed tracer) (Obs.Trace.evicted tracer);
    match !crashed with
    | Some p ->
      Printf.printf "crashed: %s\n" (Fault.crash_point_name p);
      print_string
        (Option.value ~default:"" (Obs.Trace.last_dump tracer))
    | None ->
      print_string (Option.value ~default:"" (Broker.dump_flight_recorder b))
  end

let run_jsoncheck () =
  let input = In_channel.input_all stdin in
  match Obs.Json.validate input with
  | Ok () -> print_endline "ok"
  | Error e ->
    prerr_endline ("jsoncheck: " ^ e);
    exit 1

(* ------------------------------------------------------------------ *)
(* Interactive service REPL.                                           *)

let repl_help =
  {|commands:
  schema NAME            begin a schema definition; attribute lines
                         ("attr : DOMAIN") follow, terminated by "end"
  broker NAME SCHEMA     create a broker (append "adaptive" to enable
                         distribution-driven re-optimization)
  sub BROKER WHO : BODY  subscribe WHO with a profile-language body
  pub BROKER EVENT       publish ("attr = v, ...")
  tree BROKER            print the broker's current profile tree
  report BROKER          one-line broker status
  help                   this text
  quit                   leave|}

let run_repl () =
  let svc = Genas_ens.Service.create () in
  let out fmt = Format.printf fmt in
  out "GENAS interactive service. 'help' lists commands.@.";
  let on_error = function
    | Ok () -> ()
    | Error e -> out "error: %s@." e
  in
  let rec read_schema name acc =
    match In_channel.input_line stdin with
    | None -> out "error: unterminated schema definition@."
    | Some line when String.trim line = "end" ->
      on_error
        (Genas_ens.Service.define_schema_text svc ~name (List.rev acc));
      if Genas_ens.Service.find_schema svc name <> None then
        out "schema %s defined@." name
    | Some line ->
      let line = String.trim line in
      if line = "" then read_schema name acc else read_schema name (line :: acc)
  in
  let split2 s =
    match String.index_opt s ' ' with
    | None -> (s, "")
    | Some i ->
      ( String.sub s 0 i,
        String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let rec loop () =
    out "> @?";
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let line = String.trim line in
      let cmd, rest = split2 line in
      (match cmd with
      | "" -> ()
      | "help" -> out "%s@." repl_help
      | "quit" | "exit" -> raise Exit
      | "schema" ->
        if rest = "" then out "usage: schema NAME@."
        else read_schema rest []
      | "broker" -> (
        match String.split_on_char ' ' rest with
        | [ name; schema ] ->
          on_error (Genas_ens.Service.create_broker svc ~name ~schema ());
          if Genas_ens.Service.find_broker svc name <> None then
            out "broker %s on schema %s@." name schema
        | [ name; schema; "adaptive" ] ->
          on_error
            (Genas_ens.Service.create_broker svc ~name ~schema
               ~adaptive:Genas_core.Adaptive.default_policy ());
          if Genas_ens.Service.find_broker svc name <> None then
            out "adaptive broker %s on schema %s@." name schema
        | _ -> out "usage: broker NAME SCHEMA [adaptive]@.")
      | "sub" -> (
        let broker, rest = split2 rest in
        match String.index_opt rest ':' with
        | None -> out "usage: sub BROKER WHO : BODY@."
        | Some i ->
          let who = String.trim (String.sub rest 0 i) in
          let body =
            String.trim (String.sub rest (i + 1) (String.length rest - i - 1))
          in
          (match
             Genas_ens.Service.subscribe svc ~broker ~subscriber:who body
               (fun n ->
                 match Genas_ens.Service.find_broker svc broker with
                 | Some b ->
                   out "  [%s] %s@." n.Genas_ens.Notification.subscriber
                     (Lang.event_to_string (Genas_ens.Broker.schema b)
                        n.Genas_ens.Notification.event)
                 | None -> ())
           with
          | Ok _ -> out "subscribed %s@." who
          | Error e -> out "error: %s@." e))
      | "pub" -> (
        let broker, body = split2 rest in
        match Genas_ens.Service.publish svc ~broker body with
        | Ok n -> out "%d notification(s)@." n
        | Error e -> out "error: %s@." e)
      | "tree" -> (
        match Genas_ens.Service.find_broker svc rest with
        | None -> out "error: unknown broker %S@." rest
        | Some b ->
          out "%a@." Tree.pp
            (Genas_core.Engine.tree (Genas_ens.Broker.engine b)))
      | "report" -> (
        match Genas_ens.Service.report svc ~broker:rest with
        | Ok s -> out "%s@." s
        | Error e -> out "error: %s@." e)
      | other -> out "unknown command %S ('help' lists commands)@." other);
      loop ()
  in
  (try loop () with Exit -> ());
  out "bye@."

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring.                                                    *)

open Cmdliner

let schema_arg =
  Arg.(required & opt (some file) None & info [ "schema" ] ~doc:"Schema file.")

let profiles_arg =
  Arg.(required & opt (some file) None & info [ "profiles" ] ~doc:"Profile file.")

let match_cmd =
  let events_arg =
    Arg.(required & opt (some file) None & info [ "events" ] ~doc:"Event file.")
  in
  let strategy_arg =
    Arg.(value & opt string "natural"
         & info [ "strategy" ] ~doc:"Value order: natural|v1|v2|v3|binary|hashed|auto.")
  in
  let attr_arg =
    Arg.(value & opt string "natural"
         & info [ "attr-measure" ] ~doc:"Attribute order: natural|a1|a2|a3.")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ] ~doc:"Trace each event's path through the tree.")
  in
  Cmd.v
    (Cmd.info "match" ~doc:"Filter events from a file against profiles")
    Term.(const run_match $ schema_arg $ profiles_arg $ events_arg
          $ strategy_arg $ attr_arg $ explain_arg)

let plan_cmd =
  let dists_arg =
    Arg.(value & opt_all string []
         & info [ "event-dist" ]
             ~doc:"Assumed event distribution per attribute (catalog name, \
                   repeatable).")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Show selectivities and candidate tree plans")
    Term.(const run_plan $ schema_arg $ profiles_arg $ dists_arg)

let repl_cmd =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive GENAS service (schemas, brokers, \
                           subscriptions and events from stdin)")
    Term.(const run_repl $ const ())

let dists_cmd =
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "dists" ~doc:"List or display catalog distributions")
    Term.(const run_dists $ name_arg)

let figures_cmd =
  let targets_arg = Arg.(value & pos_all string [] & info [] ~docv:"TARGET") in
  let csv_arg =
    Arg.(value & opt (some dir) None
         & info [ "csv" ] ~docv:"DIR"
             ~doc:"Also write each table to $(docv) as TARGET.csv, or \
                   TARGET_I.csv for a target of several tables.")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run_figures $ csv_arg $ targets_arg)

let simulate_cmd =
  let dists_arg =
    Arg.(value & opt_all string []
         & info [ "event-dist" ]
             ~doc:"Event distribution per attribute (catalog name, \
                   repeatable; default uniform).")
  in
  let strategy_arg =
    Arg.(value & opt string "v1"
         & info [ "strategy" ] ~doc:"Value order: natural|v1|v2|v3|binary|hashed|auto.")
  in
  let attr_arg =
    Arg.(value & opt string "a2"
         & info [ "attr-measure" ] ~doc:"Attribute order: natural|a1|a2|a3.")
  in
  let events_arg =
    Arg.(value & opt (some int) None
         & info [ "events" ]
             ~doc:"Fixed event count (default: run to 95% precision).")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Analytic vs simulated filter cost for a profile file (the \
             paper's TV protocol)")
    Term.(const run_simulate $ schema_arg $ profiles_arg $ dists_arg
          $ strategy_arg $ attr_arg $ events_arg)

let metrics_cmd =
  let format_arg =
    Arg.(value & opt string "json"
         & info [ "format" ] ~doc:"Snapshot format: json|prom.")
  in
  let events_arg =
    Arg.(value & opt int 2000
         & info [ "events" ] ~doc:"Events to publish before the snapshot.")
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Workload PRNG seed.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a simulated workload through an instrumented broker and \
             dump a metrics snapshot (match-latency percentiles, adaptive \
             rebuilds, tree gauges, delivery counters)")
    Term.(const run_metrics $ format_arg $ events_arg $ seed_arg)

let bench_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the machine-readable BENCH_*.json document (strictly \
                   validated) instead of a table.")
  in
  let events_arg =
    Arg.(value & opt int 50_000
         & info [ "events" ] ~doc:"Per-entry timing budget, in events.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")
  in
  let profiles_arg =
    Arg.(value & opt int 500
         & info [ "profiles" ]
             ~doc:"Profile population for the classic timing workload.")
  in
  let scaling_arg =
    Arg.(value & opt (some string) None
         & info [ "scaling" ] ~docv:"N,N,..."
             ~doc:"Also run the profile-count scaling curve at the given \
                   comma-separated populations (subscribe/unsubscribe \
                   latency and publish throughput, aggregation on vs the \
                   rebuild-per-churn baseline; see docs/SCALING.md) and \
                   attach it to the JSON document as a \"scaling\" block.")
  in
  let baseline_max_arg =
    Arg.(value & opt int 2_000
         & info [ "baseline-max" ] ~docv:"N"
             ~doc:"Largest --scaling population the plain rebuild-per-churn \
                   baseline is measured at; beyond it only the aggregated \
                   point is recorded (each sampled baseline op pays a full \
                   replan, seconds each on the covering workload, and the \
                   replanned tree grows combinatorially with population).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Benchmark every matcher (naive, counting, pointer tree, compiled \
             flat form, a skewed workload, publish paths) on the paper's \
             timing workload; \
             events/sec and comparisons/event per matcher and strategy")
    Term.(const run_bench $ json_arg $ events_arg $ out_arg $ profiles_arg
          $ scaling_arg $ baseline_max_arg)

let faults_cmd =
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Fault-plan and workload seed.")
  in
  let events_arg =
    Arg.(value & opt int 200 & info [ "events" ] ~doc:"Events to publish.")
  in
  let handler_arg =
    Arg.(value & opt float 0.5
         & info [ "handler-fail" ]
             ~doc:"Probability one delivery attempt to the flaky subscriber \
                   raises.")
  in
  let drop_arg =
    Arg.(value & opt float 0.1 & info [ "drop" ] ~doc:"Link drop probability.")
  in
  let dup_arg =
    Arg.(value & opt float 0.05
         & info [ "dup" ] ~doc:"Link duplication probability.")
  in
  let delay_arg =
    Arg.(value & opt float 0.05
         & info [ "delay" ] ~doc:"Link delay probability.")
  in
  let pause_arg =
    Arg.(value & opt float 0.05
         & info [ "pause" ] ~doc:"Broker pause probability.")
  in
  let retries_arg =
    Arg.(value & opt int 3
         & info [ "retries" ] ~doc:"Delivery attempts per notification.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Drive a routed broker network through a seeded fault-injection \
             plan (flaky handler, lossy links, pausing brokers) and report \
             the delivery, retry, dead-letter, and circuit-breaker outcome; \
             identical seeds replay identical traces")
    Term.(const run_faults $ seed_arg $ events_arg $ handler_arg $ drop_arg
          $ dup_arg $ delay_arg $ pause_arg $ retries_arg)

let journal_dir_arg =
  Arg.(required & opt (some string) None
       & info [ "dir" ] ~docv:"DIR" ~doc:"Journal directory.")

let journal_cmd =
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Workload (and crash-plan) seed.")
  in
  let events_arg =
    Arg.(value & opt int 60 & info [ "events" ] ~doc:"Events to publish.")
  in
  let snapshot_arg =
    Arg.(value & opt int 16
         & info [ "snapshot-every" ] ~doc:"Journaled ops between snapshots.")
  in
  let crash_arg =
    Arg.(value & opt (some string) None
         & info [ "crash" ]
             ~doc:"Inject a seeded crash: before-fsync|after-journal|\
                   mid-snapshot.")
  in
  let crash_prob_arg =
    Arg.(value & opt float 0.02
         & info [ "crash-prob" ] ~doc:"Per-operation crash probability.")
  in
  Cmd.v
    (Cmd.info "journal"
       ~doc:"Run a seeded workload through a journaled broker (write-ahead \
             log + periodic snapshots in --dir), optionally dying at an \
             injected crash point; 'recover' rebuilds the broker from the \
             same directory")
    Term.(const run_journal $ journal_dir_arg $ seed_arg $ events_arg
          $ snapshot_arg $ crash_arg $ crash_prob_arg)

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Recover a journaled broker from --dir (snapshot + journal tail, \
             truncating a torn tail) and report the rebuilt state")
    Term.(const run_recover $ journal_dir_arg)

let trace_cmd =
  let chrome_arg =
    Arg.(value & flag
         & info [ "chrome" ]
             ~doc:"Emit the flight recorder as Chrome trace-event JSON \
                   (load in chrome://tracing or ui.perfetto.dev) instead \
                   of the text dump.")
  in
  let events_arg =
    Arg.(value & opt int 12 & info [ "events" ] ~doc:"Events to publish.")
  in
  let seed_arg =
    Arg.(value & opt int 7
         & info [ "seed" ] ~doc:"Workload, sampler, and crash-plan seed.")
  in
  let sample_arg =
    Arg.(value & opt float 1.0
         & info [ "sample" ] ~doc:"Trace sampling probability in [0,1].")
  in
  let dir_arg =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Journal directory (enables journal/snapshot spans and \
                   crash injection).")
  in
  let crash_arg =
    Arg.(value & opt (some string) None
         & info [ "crash" ]
             ~doc:"Inject a seeded crash (needs --dir): before-fsync|\
                   after-journal|mid-snapshot; the flight recorder is \
                   dumped at the crash.")
  in
  let crash_prob_arg =
    Arg.(value & opt float 0.02
         & info [ "crash-prob" ] ~doc:"Per-operation crash probability.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a seeded workload through a traced broker under a \
             deterministic clock and print the causal span trees (one per \
             publish: matching, deliveries, retries, journal appends, \
             snapshot installs) — as a flight-recorder dump or as Chrome \
             trace JSON; identical seeds produce byte-identical output")
    Term.(const run_trace $ chrome_arg $ events_arg $ seed_arg $ sample_arg
          $ dir_arg $ crash_arg $ crash_prob_arg)

let jsoncheck_cmd =
  Cmd.v
    (Cmd.info "jsoncheck"
       ~doc:"Validate that stdin is a single well-formed JSON document \
             (used by the cram tests against the metrics exporter)")
    Term.(const run_jsoncheck $ const ())

(* ------------------------------------------------------------------ *)
(* Networked brokers: serve a broker over a socket / drive one from a
   scripted client (see docs/NETWORKING.md).                           *)

let net_schema = function
  | Some path -> or_die (load_schema path)
  | None -> journal_schema ()

(* Shared observability plumbing for serve/relay/connect: one metrics
   registry per process (scraped over --metrics-addr), and one tracer
   whose flight recorder is dumped to --trace-out at exit for
   [genas trace-merge] to stitch. *)

(* A per-tracer logical clock: every read advances 1µs, so span times
   depend only on the operation sequence, never the host — two
   identical runs dump byte-identical traces. Private per tracer:
   background ticker/monitor threads of *other* components never
   perturb it the way a process-wide fake [Clock.set_source] would. *)
let logical_clock () =
  let mu = Mutex.create () in
  let counter = ref 0L in
  fun () ->
    Mutex.lock mu;
    counter := Int64.add !counter 1_000L;
    let v = !counter in
    Mutex.unlock mu;
    v

type obs = {
  obs_metrics : Obs.Metrics.t;
  obs_tracer : Obs.Trace.t option;
  obs_finish : unit -> unit;
      (* write the trace dump, stop the scrape endpoint *)
}

let obs_setup ~node ~metrics_addr ~trace_out ~trace_logical ~sample =
  let module Transport = Genas_ens.Transport in
  let metrics = Obs.Metrics.create () in
  let tracer =
    match trace_out with
    | None -> None
    | Some _ ->
      let clock = if trace_logical then Some (logical_clock ()) else None in
      (* The sampler seed is the node name's hash: deterministic per
         run, and distinct nodes draw distinct trace-id streams, so a
         merged mesh dump never collides ids across nodes. *)
      let seed = Hashtbl.hash node land 0x3FFFFFFF in
      Some
        (try Obs.Trace.create ~sample ~capacity:64 ~metrics ?clock ~seed ()
         with Invalid_argument msg -> or_die (Error msg))
  in
  let scrape =
    Option.map
      (fun s ->
        let addr = or_die (Transport.addr_of_string s) in
        Obs.Scrape.start ~node ~metrics (Transport.sockaddr_of addr))
      metrics_addr
  in
  let finish () =
    (match (trace_out, tracer) with
    | Some path, Some tr ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Obs.Trace.export tr ~node))
    | _ -> ());
    Option.iter Obs.Scrape.stop scrape
  in
  { obs_metrics = metrics; obs_tracer = tracer; obs_finish = finish }

let run_trace_merge files out =
  if files = [] then or_die (Error "trace-merge: need at least one dump file");
  let dumps =
    List.map
      (fun p ->
        try In_channel.with_open_text p In_channel.input_all
        with Sys_error e -> or_die (Error ("trace-merge: " ^ e)))
      files
  in
  let merged =
    try Obs.Trace.merge_dumps dumps
    with Invalid_argument msg -> or_die (Error ("trace-merge: " ^ msg))
  in
  (match Obs.Json.validate merged with
  | Ok () -> ()
  | Error e -> or_die (Error ("trace-merge produced invalid JSON: " ^ e)));
  match out with
  | None -> print_string merged
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc merged)

let run_http_get addr_s path =
  let module Transport = Genas_ens.Transport in
  let addr = or_die (Transport.addr_of_string addr_s) in
  match Obs.Scrape.get (Transport.sockaddr_of addr) ~path with
  | Error e -> or_die (Error ("http-get: " ^ e))
  | Ok (code, body) ->
    Printf.printf "%d\n" code;
    print_string body

let run_status addr_s schema_path deadline =
  let module Client = Genas_ens.Broker_client in
  let module Transport = Genas_ens.Transport in
  let addr = or_die (Transport.addr_of_string addr_s) in
  let schema = net_schema schema_path in
  let c =
    or_die
      (Client.connect ~name:"status-probe" ~deadline_s:deadline ~heartbeat:None
         schema addr)
  in
  let nodes = or_die (Client.status_request c) in
  Client.close c;
  Printf.printf "%-12s %-8s %8s %6s %9s  %s\n" "NODE" "ROLE" "CURSOR" "CONNS"
    "UPTIME" "PEERS";
  List.iter
    (fun (n : Transport.node_status) ->
      Printf.printf "%-12s %-8s %8d %6d %8.1fs  %s\n" n.Transport.ns_node
        n.Transport.ns_role n.Transport.ns_cursor n.Transport.ns_connections
        n.Transport.ns_uptime_s
        (String.concat ", "
           (List.map
              (fun (p : Transport.peer_status) ->
                Printf.sprintf "%s(%s,q=%d)" p.Transport.ps_name
                  p.Transport.ps_state p.Transport.ps_queue)
              n.Transport.ns_peers)))
    nodes

(* [--heartbeat 0] disables liveness; anything positive is the ping
   period in seconds, with [--misses] silent periods declaring a peer
   dead. *)
let net_heartbeat period misses =
  let module Transport = Genas_ens.Transport in
  if period <= 0.0 then None
  else
    match Transport.heartbeat ~period_s:period ~misses () with
    | hb -> Some hb
    | exception Invalid_argument msg -> or_die (Error msg)

let run_serve addr_s schema_path dir snapshot_every aggregate connections name
    hb_period hb_misses max_queue metrics_addr trace_out trace_logical sample =
  let module Server = Genas_ens.Broker_server in
  let module Journal = Genas_ens.Journal in
  let module Transport = Genas_ens.Transport in
  let addr = or_die (Transport.addr_of_string addr_s) in
  let schema = net_schema schema_path in
  let obs = obs_setup ~node:name ~metrics_addr ~trace_out ~trace_logical ~sample in
  let b =
    match dir with
    | Some dir ->
      let journal =
        try Journal.config ~snapshot_every dir
        with Invalid_argument msg -> or_die (Error msg)
      in
      Broker.create ~journal ~aggregate ~metrics:obs.obs_metrics
        ?tracer:obs.obs_tracer schema
    | None ->
      Broker.create ~aggregate ~metrics:obs.obs_metrics ?tracer:obs.obs_tracer
        schema
  in
  let srv =
    Server.create ~name ~heartbeat:(net_heartbeat hb_period hb_misses)
      ~max_queue ~metrics:obs.obs_metrics ?tracer:obs.obs_tracer ~broker:b addr
  in
  Printf.printf "serving %s\n%!" (Transport.addr_to_string addr);
  Server.serve ~connections srv;
  Printf.printf "served %d connection(s), cursor %d\n" connections
    (Server.cursor srv);
  Broker.close b;
  obs.obs_finish ()

let run_relay addr_s up_s schema_path dir snapshot_every connections name
    hb_period hb_misses max_queue metrics_addr trace_out trace_logical sample =
  let module Server = Genas_ens.Broker_server in
  let module Relay = Genas_ens.Relay in
  let module Journal = Genas_ens.Journal in
  let module Transport = Genas_ens.Transport in
  let listen = or_die (Transport.addr_of_string addr_s) in
  let up = or_die (Transport.addr_of_string up_s) in
  let schema = net_schema schema_path in
  let obs = obs_setup ~node:name ~metrics_addr ~trace_out ~trace_logical ~sample in
  let journal =
    Option.map
      (fun dir ->
        try Journal.config ~snapshot_every dir
        with Invalid_argument msg -> or_die (Error msg))
      dir
  in
  let r =
    or_die
      (Relay.create ?journal ~heartbeat:(net_heartbeat hb_period hb_misses)
         ~max_queue ~metrics:obs.obs_metrics ?tracer:obs.obs_tracer
         ~start:false ~name ~up ~listen schema)
  in
  Printf.printf "relay %s: serving %s, upstream %s\n%!" name
    (Transport.addr_to_string listen)
    (Transport.addr_to_string up);
  Server.serve ~connections (Relay.server r);
  Printf.printf "relay %s: served %d connection(s), cursor %d\n" name
    connections
    (Server.cursor (Relay.server r));
  Relay.close r;
  obs.obs_finish ()

let run_connect addr_s schema_path name auto deadline hb_period hb_misses
    metrics_addr trace_out trace_logical sample =
  let module Client = Genas_ens.Broker_client in
  let module Transport = Genas_ens.Transport in
  let addr = or_die (Transport.addr_of_string addr_s) in
  let schema = net_schema schema_path in
  let obs = obs_setup ~node:name ~metrics_addr ~trace_out ~trace_logical ~sample in
  let reconnect =
    if auto then Some (Genas_ens.Supervise.retry_policy ~backoff_ns:5e7 ())
    else None
  in
  let c =
    or_die
      (Client.connect ~name ~deadline_s:deadline
         ~heartbeat:(net_heartbeat hb_period hb_misses) ?reconnect
         ~metrics:obs.obs_metrics ?tracer:obs.obs_tracer schema addr)
  in
  let deliver who n =
    Printf.printf "deliver %s <- %s\n%!" who
      (Lang.event_to_string schema n.Genas_ens.Notification.event)
  in
  let split_colon line =
    match String.index_opt line ':' with
    | None -> Error "expected 'WHO : BODY'"
    | Some i ->
      Ok
        ( String.trim (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
  in
  let run_line line =
    let word, rest =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    in
    match word with
    | "sub" ->
      let* who, body = split_colon rest in
      let* tok = Client.subscribe c ~subscriber:who body (deliver who) in
      Printf.printf "sub %s token=%d forwarded=%d\n%!" who tok
        (List.length (Client.forwarded_tokens c));
      Ok ()
    | "pub" ->
      let* ev = Lang.parse_event schema rest in
      let* local = Client.publish c ev in
      Printf.printf "pub ok local=%d\n%!" local;
      Ok ()
    | "await" ->
      let n = try int_of_string rest with Failure _ -> 1 in
      Printf.printf "await applied=%d\n%!" (Client.await_deliveries c n);
      Ok ()
    | "replay" ->
      let* applied, complete = Client.replay c in
      Printf.printf "replay applied=%d complete=%b\n%!" applied complete;
      Ok ()
    | "status" ->
      (* Flushed per line: a scripted peer (cram, another process)
         paces itself on this output, so it cannot sit in the stdio
         buffer until exit. *)
      Printf.printf
        "status connected=%b applied=%d dropped=%d reconnects=%d \
         heartbeat_misses=%d outbox=%d\n%!"
        (Client.connected c) (Client.applied_total c)
        (Client.duplicates_dropped c) (Client.reconnects c)
        (Client.heartbeat_misses c) (Client.outbox_depth c);
      Ok ()
    | "quit" -> Ok ()
    | other -> Error (Printf.sprintf "unknown command %S" other)
  in
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some raw ->
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then loop ()
      else if line = "quit" then ()
      else begin
        (match run_line line with
        | Ok () -> ()
        | Error e -> Printf.printf "error: %s\n%!" e);
        loop ()
      end
  in
  loop ();
  Client.close c;
  Printf.printf "bye applied=%d dropped=%d\n" (Client.applied_total c)
    (Client.duplicates_dropped c);
  obs.obs_finish ()

let addr_arg =
  Arg.(required & opt (some string) None
       & info [ "addr" ] ~docv:"ADDR"
           ~doc:"Socket address: unix:PATH or tcp:HOST:PORT.")

let net_schema_arg =
  Arg.(value & opt (some string) None
       & info [ "schema" ] ~docv:"FILE"
           ~doc:"Schema file (default: the demo topic/severity schema).")

let dir_arg =
  Arg.(value & opt (some string) None
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Journal directory (enables durability and client \
                 catch-up replay).")

let snapshot_arg =
  Arg.(value & opt int 1000
       & info [ "snapshot-every" ] ~doc:"Journaled ops between snapshots.")

let connections_arg =
  Arg.(value & opt int 1
       & info [ "connections" ] ~docv:"N"
           ~doc:"Serve exactly N connections, then exit (0: forever).")

let node_name_arg default =
  Arg.(value & opt string default
       & info [ "name" ] ~docv:"NAME"
           ~doc:"Node name — the origin tag for cross-hop no-echo; must \
                 be unique within a mesh.")

let heartbeat_arg =
  Arg.(value & opt float 5.0
       & info [ "heartbeat" ] ~docv:"SECS"
           ~doc:"Liveness ping period in seconds (0 disables liveness).")

let misses_arg =
  Arg.(value & opt int 3
       & info [ "misses" ] ~docv:"N"
           ~doc:"Silent heartbeat periods before a peer is declared dead.")

let max_queue_arg =
  Arg.(value & opt int 1024
       & info [ "max-queue" ] ~docv:"N"
           ~doc:"Outbound frames queued per connection before a peer is \
                 dropped as a slow consumer (replay is its catch-up).")

let metrics_addr_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-addr" ] ~docv:"ADDR"
           ~doc:"Serve a metrics scrape endpoint on $(docv) (unix:PATH or \
                 tcp:HOST:PORT): /metrics is Prometheus text, \
                 /metrics.json a JSON snapshot, both carrying \
                 genas_build_info and genas_uptime_seconds.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Enable wire tracing and write this node's flight-recorder \
                 dump to $(docv) at exit; stitch the per-node dumps into \
                 one Chrome trace with 'genas trace-merge'.")

let trace_logical_arg =
  Arg.(value & flag
       & info [ "trace-logical" ]
           ~doc:"Time spans with a private logical clock (1µs per reading) \
                 instead of the host monotonic clock: identical runs dump \
                 byte-identical traces.")

let net_sample_arg =
  Arg.(value & opt float 1.0
       & info [ "sample" ] ~doc:"Trace sampling probability in [0,1].")

let serve_cmd =
  let aggregate_arg =
    Arg.(value & flag
         & info [ "aggregate" ]
             ~doc:"Aggregate subscriptions through the covering lattice \
                   (epoch swaps recompile on the subscribing connection's \
                   thread, never on the publish path).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a broker over a Unix-domain or TCP socket speaking the \
             checksummed Codec wire protocol: remote subscribe/publish, \
             covering-aware delivery, heartbeat liveness, bounded \
             per-connection queues, and (with --dir) write-ahead \
             durability with since-cursor catch-up replay")
    Term.(const run_serve $ addr_arg $ net_schema_arg $ dir_arg
          $ snapshot_arg $ aggregate_arg $ connections_arg
          $ node_name_arg "server" $ heartbeat_arg $ misses_arg
          $ max_queue_arg $ metrics_addr_arg $ trace_out_arg
          $ trace_logical_arg $ net_sample_arg)

let relay_cmd =
  let up_arg =
    Arg.(required & opt (some string) None
         & info [ "up" ] ~docv:"ADDR"
             ~doc:"Upstream broker address: unix:PATH or tcp:HOST:PORT.")
  in
  Cmd.v
    (Cmd.info "relay"
       ~doc:"Run a relay node: serve downstream peers on --addr while \
             peering with an upstream broker at --up. Downstream \
             subscriptions mirror upstream (covering-minimized), \
             publishes forward with origin preserved, and the upstream \
             link self-heals by reconnect + replay")
    Term.(const run_relay $ addr_arg $ up_arg $ net_schema_arg $ dir_arg
          $ snapshot_arg $ connections_arg $ node_name_arg "relay"
          $ heartbeat_arg $ misses_arg $ max_queue_arg $ metrics_addr_arg
          $ trace_out_arg $ trace_logical_arg $ net_sample_arg)

let connect_cmd =
  let auto_arg =
    Arg.(value & flag
         & info [ "auto" ]
             ~doc:"Self-heal the link: automatic reconnect with capped \
                   exponential backoff, re-sent subscriptions, and \
                   journal catch-up replay.")
  in
  let deadline_arg =
    Arg.(value & opt float 30.0
         & info [ "deadline" ] ~docv:"SECS"
             ~doc:"Request deadline: a handshake or acknowledged request \
                   blocked longer fails with a timeout.")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Connect a scripted client to a served broker; stdin drives \
             it: 'sub WHO : BODY', 'pub attr = v, ...', 'await N', \
             'replay', 'status', 'quit'")
    Term.(const run_connect $ addr_arg $ net_schema_arg
          $ node_name_arg "client" $ auto_arg $ deadline_arg
          $ heartbeat_arg $ misses_arg $ metrics_addr_arg $ trace_out_arg
          $ trace_logical_arg $ net_sample_arg)

let trace_merge_cmd =
  let files_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"DUMP")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:"Stitch per-node flight-recorder dumps (--trace-out files) into \
             one Chrome trace-event JSON document: one pid per node, \
             per-node clock normalization, and net.ctx flow arrows linking \
             each hop's spans to the publish that caused them")
    Term.(const run_trace_merge $ files_arg $ out_arg)

let status_cmd =
  let deadline_arg =
    Arg.(value & opt float 30.0
         & info [ "deadline" ] ~docv:"SECS"
             ~doc:"Status request deadline.")
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Ask a served broker (or relay) for mesh introspection: one \
             Status_req fans out across the relay chain and the aggregated \
             table lists every hop's node name, role, journal cursor, \
             connection count, uptime, and per-peer link state")
    Term.(const run_status $ addr_arg $ net_schema_arg $ deadline_arg)

let http_get_cmd =
  let path_arg =
    Arg.(value & opt string "/metrics"
         & info [ "path" ] ~docv:"PATH" ~doc:"Request path.")
  in
  Cmd.v
    (Cmd.info "http-get"
       ~doc:"Curl-free HTTP/1.0 GET against a --metrics-addr scrape \
             endpoint: prints the status code, then the body (used by the \
             cram suite)")
    Term.(const run_http_get $ addr_arg $ path_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "genas" ~version:"1.0.0"
             ~doc:"Distribution-based event filtering (GENAS)")
          [ match_cmd; plan_cmd; simulate_cmd; dists_cmd; figures_cmd;
            bench_cmd; metrics_cmd; faults_cmd; journal_cmd; recover_cmd;
            trace_cmd; trace_merge_cmd; jsoncheck_cmd; repl_cmd; serve_cmd;
            relay_cmd; connect_cmd; status_cmd; http_get_cmd ]))
