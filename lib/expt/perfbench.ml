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
module Ops = Genas_filter.Ops
module Stats = Genas_core.Stats
module Selectivity = Genas_core.Selectivity
module Reorder = Genas_core.Reorder
module Clock = Genas_obs.Clock
module Json = Genas_obs.Json
module Trace = Genas_obs.Trace
module Profile_set = Genas_profile.Profile_set
module Engine = Genas_core.Engine
module Broker = Genas_ens.Broker
module Broker_server = Genas_ens.Broker_server
module Broker_client = Genas_ens.Broker_client
module Transport = Genas_ens.Transport

type result = {
  name : string;
  matcher : string;
  strategy : string;
  timed_events : int;
  events_per_sec : float;
  comparisons_per_event : float;
  matches_per_event : float;
  plan_ms : float option;
}

type t = {
  profiles : int;
  attributes : int;
  event_pool : int;
  seed : int;
  recommended_domains : int;
  cpu_count : int;
  results : result list;
}

(* Host core count, so BENCH_*.json figures can be compared across
   hosts. Linux exposes it in /proc/cpuinfo; elsewhere fall back to the
   runtime's recommendation. *)
let host_cpu_count () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if
           String.length line >= 9
           && String.equal (String.sub line 0 9) "processor"
         then incr n
       done
     with End_of_file -> ());
    close_in ic;
    if !n > 0 then !n else Domain.recommended_domain_count ()

let pool_size = 1024 (* power of two: the wrap index is a mask *)

(* One benchmark entry: [timed n] processes ~n events as fast as the
   matcher allows (returning the exact count), [counted ()] replays the
   event pool once under an [Ops] counter for the deterministic
   comparisons/event figure. *)
type entry = {
  e_name : string;
  e_matcher : string;
  e_strategy : string;
  timed : int -> int;
  counted : unit -> Ops.t;
}

let row entry ~timed_events ~events_per_sec =
  let ops = entry.counted () in
  {
    name = entry.e_name;
    matcher = entry.e_matcher;
    strategy = entry.e_strategy;
    timed_events;
    events_per_sec;
    comparisons_per_event =
      float_of_int ops.Ops.comparisons /. float_of_int ops.Ops.events;
    matches_per_event =
      float_of_int ops.Ops.matches /. float_of_int ops.Ops.events;
    plan_ms = None;
  }

let elapsed_s t0 = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9

let rate n dt = if dt > 0.0 then float_of_int n /. dt else 0.0

(* The rows of one group share the budget in [slices] slices, taken
   in turn, forward then reverse order so no row always runs first;
   each row reports the median of its per-slice rates. A host stall
   then costs one slice of one row, not one row's only sample. *)
let slices = 16

let measure_interleaved ~events entries =
  let rows = Array.of_list entries in
  let k = Array.length rows in
  Array.iter (fun e -> ignore (e.timed (min pool_size events))) rows;
  let per = max 1 (events / slices) in
  let rates = Array.make_matrix k slices 0.0 and timed = Array.make k 0 in
  for s = 0 to slices - 1 do
    for j = 0 to k - 1 do
      let i = if s land 1 = 0 then j else k - 1 - j in
      let t0 = Clock.now_ns () in
      let n = rows.(i).timed per in
      rates.(i).(s) <- rate n (elapsed_s t0);
      timed.(i) <- timed.(i) + n
    done
  done;
  List.init k (fun i ->
      Array.sort Float.compare rates.(i);
      row rows.(i) ~timed_events:timed.(i)
        ~events_per_sec:rates.(i).(slices / 2))

let attrs = 3

let schema = Workload.normalized_schema ~attrs ~points:100 ()

let axes =
  Array.init attrs (fun i ->
      Axis.of_domain (Schema.attribute schema i).Schema.domain)

let paper_profiles ?(profiles = 500) rng =
  Workload.gen_profiles rng schema
    {
      Workload.p = profiles;
      dontcare = Array.make attrs 0.3;
      value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
      range_width = None;
    }

(* [pool_size] events drawn from [dists], one coordinate per attribute
   in attribute order. *)
let event_pool rng dists =
  Array.init pool_size (fun _ ->
      let coords = Workload.event_coords rng dists in
      Event.of_values_exn schema
        (Array.mapi
           (fun i c -> Axis.value (Schema.attribute schema i).Schema.domain c)
           coords))

let v1a2 =
  {
    Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
    value_choice = `Measure Selectivity.V1;
  }

(* One full re-plan of the table, the work every rebuild pays:
   decompose, reorder from fresh statistics, compile; median of 5. *)
let plan_row pset =
  let ms =
    Array.init 5 (fun _ ->
        let t0 = Clock.now_ns () in
        let stats = Stats.create (Decomp.build pset) in
        ignore (Flat.compile (Reorder.build stats v1a2));
        Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e6)
  in
  Array.sort Float.compare ms;
  { name = "plan/v1+a2"; matcher = "plan"; strategy = "v1+a2";
    timed_events = 5; events_per_sec = 1e3 /. ms.(2);
    comparisons_per_event = 0.0; matches_per_event = 0.0;
    plan_ms = Some ms.(2) }

let run ?(profiles = 500) ?(seed = 99) ?(events = 50_000) () =
  let rng = Prng.create ~seed in
  let pset = paper_profiles ~profiles rng in
  let decomp = Decomp.build pset in
  let stats = Stats.create decomp in
  let pool_events = event_pool rng (Array.map Dist.uniform axes) in
  let mask = pool_size - 1 in
  let naive = Naive.build pset in
  let counting = Counting.build pset in
  let binary =
    { Reorder.attr_choice = Reorder.Attr_natural; value_choice = `Binary }
  in
  let trees =
    [
      ("natural", Tree.build decomp (Tree.default_config decomp));
      ("v1+a2", Reorder.build stats v1a2);
      ("binary", Reorder.build stats binary);
    ]
  in
  (* Per-event loop over an event pool with wraparound, the shape of
     every single-event entry below. Each call resumes where the last
     stopped, so interleaved slices still walk the whole pool. *)
  let per_event_over evs f =
    let next = ref 0 in
    fun n ->
      for _ = 1 to n do
        f evs.(!next land mask);
        incr next
      done;
      n
  in
  let counted_per_event_over evs f () =
    let ops = Ops.create () in
    Array.iter (f ops) evs;
    ops
  in
  let per_event f = per_event_over pool_events f in
  let counted_per_event f = counted_per_event_over pool_events f in
  let entry name matcher strategy timed counted =
    {
      e_name = name;
      e_matcher = matcher;
      e_strategy = strategy;
      timed;
      counted;
    }
  in
  let baseline_entries =
    [
      entry "naive" "naive" "n/a"
        (per_event (fun e -> ignore (Naive.match_event naive e)))
        (counted_per_event (fun ops e -> ignore (Naive.match_event ~ops naive e)));
      entry "counting" "counting" "n/a"
        (per_event (fun e -> ignore (Counting.match_event counting e)))
        (counted_per_event (fun ops e ->
             ignore (Counting.match_event ~ops counting e)));
    ]
  in
  let tree_entries =
    List.concat_map
      (fun (sname, tree) ->
        let flat = Flat.compile tree in
        let cur = Flat.cursor flat in
        [
          entry ("tree/" ^ sname) "tree" sname
            (per_event (fun e -> ignore (Tree.match_event tree e)))
            (counted_per_event (fun ops e ->
                 ignore (Tree.match_event ~ops tree e)));
          entry ("flat/" ^ sname) "flat" sname
            (per_event (fun e -> ignore (Flat.match_into flat cur e)))
            (counted_per_event (fun ops e ->
                 ignore (Flat.match_into ~ops flat cur e)));
        ])
      trees
  in
  (* Skewed "TV-style" workload: events peaked on a narrow hot region
     (Fig. 5's "90 % high" family), so a few flat nodes absorb most
     visits. The skew row uses its own 8x-denser profile population, a
     node table that outgrows the fast cache levels. *)
  let skew_dists = Array.map (Shape.peak ~at:0.85 ~mass:0.9 ~width:0.05) axes in
  let skew_flat =
    let skew_pset =
      Workload.gen_profiles rng schema
        {
          Workload.p = profiles * 8;
          dontcare = Array.make attrs 0.3;
          value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
          range_width = None;
        }
    in
    let skew_stats = Stats.create (Decomp.build skew_pset) in
    Flat.compile (Reorder.build skew_stats v1a2)
  in
  let skew_events = event_pool rng skew_dists in
  let skew_entry =
    let cur = Flat.cursor skew_flat in
    entry "flat-skew/v1+a2" "flat-skew" "v1+a2"
      (per_event_over skew_events (fun e ->
           ignore (Flat.match_into skew_flat cur e)))
      (counted_per_event_over skew_events (fun ops e ->
           ignore (Flat.match_into ~ops skew_flat cur e)))
  in
  (* Full publish path (matching + supervised delivery to null
     handlers) through a broker: untraced, with a never-sampling
     tracer attached ("traced-off" — the disabled-tracing cost the
     cram suite asserts is noise), and fully traced. The timed broker
     accumulates state across passes; [counted] replays the pool once
     through a fresh broker so the comparison counters stay exact. *)
  let make_broker tracer =
    let b =
      match tracer with
      | None -> Broker.create ~spec:v1a2 schema
      | Some sample ->
        Broker.create ~spec:v1a2
          ~tracer:(Trace.create ~sample ~seed:(seed + 1) ())
          schema
    in
    Profile_set.iter pset (fun id p ->
        ignore
          (Broker.subscribe b ~subscriber:(string_of_int id) ~profile:p
             (fun _ -> ())));
    b
  in
  let publish_entries =
    List.map
      (fun (variant, tracer) ->
        let b = make_broker tracer in
        entry ("publish/" ^ variant) "publish" "v1+a2"
          (per_event (fun e -> ignore (Broker.publish b e)))
          (fun () ->
            let fresh = make_broker tracer in
            Array.iter (fun e -> ignore (Broker.publish fresh e)) pool_events;
            Broker.ops fresh))
      [ ("untraced", None); ("traced-off", Some 0.0); ("traced", Some 1.0) ]
  in
  (* Networked publish path: a loopback Broker_server + Broker_client
     pair over a Unix socket — each publish is one full wire round
     trip (encode, checksum, kernel, decode, match, supervised
     delivery, ack). The traced-off row attaches a never-sampling
     tracer to both ends: the disabled-tracing overhead on the
     networked path, which the cram suite pins as noise. Matching runs
     on the server's broker (the usual topology); [counted] replays
     the pool through an identically subscribed local broker, because
     the wire never changes what the matcher compares. *)
  let live_net = ref [] in
  let net_publish_entries =
    List.map
      (fun (variant, sample) ->
        let path = Filename.temp_file "genas_bench_net" ".sock" in
        Sys.remove path;
        let addr = Transport.Unix_sock path in
        let tracer () =
          Option.map (fun s -> Trace.create ~sample:s ~seed:(seed + 2) ()) sample
        in
        let b = Broker.create ~spec:v1a2 schema in
        Profile_set.iter pset (fun id p ->
            ignore
              (Broker.subscribe b ~subscriber:(string_of_int id) ~profile:p
                 (fun _ -> ())));
        let srv =
          Broker_server.create ~name:"bench-srv" ~heartbeat:None
            ?tracer:(tracer ()) ~broker:b addr
        in
        Broker_server.start srv;
        let c =
          match
            Broker_client.connect ~name:"bench-cli" ~heartbeat:None
              ?tracer:(tracer ()) schema addr
          with
          | Ok c -> c
          | Error e -> failwith ("perfbench: net publish connect: " ^ e)
        in
        live_net :=
          (fun () ->
            Broker_client.close c;
            Broker_server.stop srv;
            Broker.close b)
          :: !live_net;
        entry ("publish/" ^ variant) "publish-net" "v1+a2"
          (per_event (fun e -> ignore (Broker_client.publish c e)))
          (fun () ->
            let fresh = make_broker sample in
            Array.iter (fun e -> ignore (Broker.publish fresh e)) pool_events;
            Broker.ops fresh))
      [ ("net-untraced", None); ("net-traced-off", Some 0.0) ]
  in
  let results =
    measure_interleaved ~events
      (baseline_entries @ tree_entries @ [ skew_entry ])
    @ measure_interleaved ~events publish_entries
    @ measure_interleaved ~events net_publish_entries
    @ [ plan_row pset ]
  in
  List.iter (fun f -> f ()) !live_net;
  {
    profiles;
    attributes = attrs;
    event_pool = pool_size;
    seed;
    recommended_domains = Domain.recommended_domain_count ();
    cpu_count = host_cpu_count ();
    results;
  }

(* ------------------------------------------------------------------ *)
(* Profile-count scaling: subscribe/unsubscribe latency and publish
   throughput on the covering-heavy workload, aggregation on vs the
   plain engine.                                                       *)

type scale_point = {
  population : int;
  aggregated : bool;
  subscribe_ns : float;
  unsubscribe_ns : float;
  publish_eps : float;
  absorbed : int;
  covering_roots : int;
  epoch_swaps : int;
}

type scale = {
  sc_seed : int;
  sc_samples : int;
  sc_baseline_samples : int;
  sc_events : int;
  sc_baseline_max : int;
  sc_points : scale_point list;
}

let scale ?(points = [ 1_000; 10_000; 100_000; 1_000_000 ]) ?(seed = 99)
    ?(events = 2_048) ?(samples = 32) ?(baseline_samples = 2)
    ?(baseline_max = 2_000) () =
  let measure_point ~population ~samples ~aggregate =
    let rng = Prng.create ~seed in
    let source = Workload.gen_covering_profiles rng schema ~p:population () in
    let profs =
      let acc = ref [] in
      Profile_set.iter source (fun _ pr -> acc := pr :: !acc);
      Array.of_list (List.rev !acc)
    in
    let pool_events = event_pool rng (Array.map Dist.uniform axes) in
    let mask = pool_size - 1 in
    let ev_i = ref 0 in
    let next_ev () =
      let e = pool_events.(!ev_i land mask) in
      incr ev_i;
      e
    in
    (* A modest delta cap so the curve actually exercises epoch swaps:
       structural churn (new lattice roots, root removals) crosses the
       cap repeatedly as the population grows. *)
    let engine =
      Engine.create ~aggregate ~delta_cap:64 (Profile_set.create schema)
    in
    (* Subscribe latency, sampled during growth. Each sampled op is a
       subscribe followed by one matched event, which exercises
       whatever the churn actually left pending: on the aggregated
       engine usually nothing; on the plain engine the pending delta,
       checked directly, or folded into a full replan when the
       subscriptions since the last sample outweigh the compiled tree
       (always at the first sample). *)
    let stride = max 1 (population / samples) in
    let sub_ns = ref 0.0 and sub_n = ref 0 in
    Array.iteri
      (fun i pr ->
        if (i + 1) mod stride = 0 then begin
          let t0 = Clock.now_ns () in
          ignore (Engine.add_profile engine pr);
          ignore (Engine.match_event engine (next_ev ()));
          sub_ns :=
            !sub_ns +. Int64.to_float (Int64.sub (Clock.now_ns ()) t0);
          incr sub_n
        end
        else ignore (Engine.add_profile engine pr))
      profs;
    (* Unsubscribe latency over spread-out victims (roots included, so
       dissolution and re-placement are exercised); each victim is
       re-added afterwards to keep the population size fixed. *)
    let churn = min samples (max 1 (population / 4)) in
    let unsub_ns = ref 0.0 and unsub_n = ref 0 in
    for k = 0 to churn - 1 do
      let victim = k * (population / churn) in
      let t0 = Clock.now_ns () in
      ignore (Engine.remove_profile engine victim);
      ignore (Engine.match_event engine (next_ev ()));
      unsub_ns := !unsub_ns +. Int64.to_float (Int64.sub (Clock.now_ns ()) t0);
      incr unsub_n;
      ignore (Engine.add_profile engine profs.(victim))
    done;
    (* Settle before timing publishes. A plain engine folds the churn
       left pending, as its rent rule would early in a long stream; an
       aggregated engine below its cap keeps matching its delta, which
       is its steady state. *)
    if not aggregate then Engine.refresh_keeping_history engine;
    Array.iter (fun e -> ignore (Engine.match_event engine e)) pool_events;
    let t0 = Clock.now_ns () in
    for _ = 1 to events do
      ignore (Engine.match_event engine (next_ev ()))
    done;
    let dt = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9 in
    {
      population;
      aggregated = aggregate;
      subscribe_ns = !sub_ns /. float_of_int (max 1 !sub_n);
      unsubscribe_ns = !unsub_ns /. float_of_int (max 1 !unsub_n);
      publish_eps = (if dt > 0.0 then float_of_int events /. dt else 0.0);
      absorbed = Engine.absorbed_profiles engine;
      covering_roots = Engine.lattice_roots engine;
      epoch_swaps = Engine.epoch engine;
    }
  in
  let sc_points =
    List.concat_map
      (fun population ->
        let agg = measure_point ~population ~samples ~aggregate:true in
        if population <= baseline_max then
          (* The first sampled baseline op folds the population into a
             full replan — seconds of wall clock on the covering-heavy
             workload even at 10^3 — so the plain engine gets only
             [baseline_samples] of them. *)
          [
            agg;
            measure_point ~population ~samples:baseline_samples
              ~aggregate:false;
          ]
        else [ agg ])
      (List.sort_uniq Int.compare points)
  in
  {
    sc_seed = seed;
    sc_samples = samples;
    sc_baseline_samples = baseline_samples;
    sc_events = events;
    sc_baseline_max = baseline_max;
    sc_points;
  }

(* The scaling block deliberately avoids the "name" / "profiles" /
   "events_per_sec" / "comparisons_per_event" keys the cram suite
   counts in the classic results, so attaching it never disturbs those
   pins. *)
let scale_to_json sc =
  let point_json p =
    Json.Obj
      [
        ("population", Json.Int p.population);
        ("aggregated", Json.Bool p.aggregated);
        ("subscribe_ns", Json.number p.subscribe_ns);
        ("unsubscribe_ns", Json.number p.unsubscribe_ns);
        ("publish_eps", Json.number p.publish_eps);
        ("absorbed", Json.Int p.absorbed);
        ("covering_roots", Json.Int p.covering_roots);
        ("epoch_swaps", Json.Int p.epoch_swaps);
      ]
  in
  Json.Obj
    [
      ("seed", Json.Int sc.sc_seed);
      ("samples", Json.Int sc.sc_samples);
      ("baseline_samples", Json.Int sc.sc_baseline_samples);
      ("timing_events", Json.Int sc.sc_events);
      ("baseline_max", Json.Int sc.sc_baseline_max);
      ("points", Json.List (List.map point_json sc.sc_points));
    ]

let find_eps t name =
  List.find_map
    (fun r -> if r.name = name then Some r.events_per_sec else None)
    t.results

let speedup t ~num ~den =
  match (find_eps t num, find_eps t den) with
  | Some a, Some b when b > 0.0 -> Some (a /. b)
  | _ -> None

let to_json ?scale:sc t =
  let result_json r =
    Json.Obj
      ([
        ("name", Json.Str r.name);
        ("matcher", Json.Str r.matcher);
        ("strategy", Json.Str r.strategy);
        ("timed_events", Json.Int r.timed_events);
        ("events_per_sec", Json.number r.events_per_sec);
        ("comparisons_per_event", Json.number r.comparisons_per_event);
        ("matches_per_event", Json.number r.matches_per_event);
      ]
      @ match r.plan_ms with
        | Some ms -> [ ("plan_ms", Json.number ms) ]
        | None -> [])
  in
  let derived =
    let field name v =
      (name, match v with Some s -> Json.number s | None -> Json.Null)
    in
    Json.Obj
      [
        field "flat_vs_tree" (speedup t ~num:"flat/v1+a2" ~den:"tree/v1+a2");
        field "publish_traced_off_vs_untraced"
          (speedup t ~num:"publish/traced-off" ~den:"publish/untraced");
        field "publish_traced_vs_untraced"
          (speedup t ~num:"publish/traced" ~den:"publish/untraced");
        field "publish_net_traced_off_vs_untraced"
          (speedup t ~num:"publish/net-traced-off" ~den:"publish/net-untraced");
      ]
  in
  Json.Obj
    ([
       ("bench", Json.Str "genas-perf");
       ("schema_version", Json.Int 1);
       ( "workload",
         Json.Obj
           [
             ("profiles", Json.Int t.profiles);
             ("attributes", Json.Int t.attributes);
             ("event_pool", Json.Int t.event_pool);
             ("seed", Json.Int t.seed);
           ] );
       ( "host",
         Json.Obj
           [
             ("recommended_domains", Json.Int t.recommended_domains);
             ("cpu_count", Json.Int t.cpu_count);
           ] );
       ("results", Json.List (List.map result_json t.results));
       ("derived", derived);
     ]
    @ match sc with None -> [] | Some s -> [ ("scaling", scale_to_json s) ])

let table t =
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Printf.sprintf "%.0f" r.events_per_sec;
          Report.f2 r.comparisons_per_event;
          Report.f2 r.matches_per_event;
        ])
      t.results
  in
  Report.table ~title:"Matcher throughput (wall clock)"
    ~columns:[ "matcher"; "events/s"; "cmp/event"; "match/event" ]
    ~notes:
      [
        Printf.sprintf
          "%d profiles, %d attributes, uniform events, seed %d; host has \
           %d core(s), recommends %d domain(s)"
          t.profiles t.attributes t.seed t.cpu_count t.recommended_domains;
      ]
    rows
