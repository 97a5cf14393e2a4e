(* The three workloads, measured end to end with tracing off, and the
   pieces of them the traced run (Waterfall) reuses. *)

module Profile_set = Genas_profile.Profile_set
module Naive = Genas_filter.Naive
module Ops = Genas_filter.Ops
module Broker = Genas_ens.Broker
module Client = Genas_ens.Broker_client
module Notification = Genas_ens.Notification
module Metrics = Genas_obs.Metrics
module Json = Genas_obs.Json
module Hist = Stat.Hist

let us = 1e3

(* comparisons_per_event covers exactly the first [n_cmp] publishes of
   a deployment's stream (the untimed warm-up), so it repeats for a
   given seed. *)
let n_cmp = 4096

let time_s f =
  let t0 = Stat.now_ns () in
  let v = f () in
  (v, (Stat.now_ns () -. t0) /. 1e9)

(* {1 Closed loops} *)

type window = {
  index : int;  (** position in the run; -1 for the warm-up *)
  mutable ops : int;
  mutable dur : float;
  pub : Hist.t;
  notif : Hist.t;
}

let window index =
  { index; ops = 0; dur = 0.0; pub = Hist.create (); notif = Hist.create () }

(* [warm] steps untimed, then [windows] equal slices of [seconds], each
   running [step w i] for consecutive [i] until its slice ends. *)
let closed_loop ~warm ~seconds ~windows step =
  let scratch = window (-1) in
  for i = 0 to warm - 1 do
    step scratch i
  done;
  let ws = Array.init windows window in
  let wlen = seconds *. 1e9 /. float_of_int windows in
  let t_start = Stat.now_ns () in
  let i = ref warm in
  Array.iteri
    (fun k w ->
      let w_end = t_start +. (float_of_int (k + 1) *. wlen) in
      let t0 = Stat.now_ns () in
      while Stat.now_ns () < w_end do
        for _ = 1 to 16 do
          step w !i;
          incr i
        done;
        w.ops <- w.ops + 16
      done;
      w.dur <- Stat.now_ns () -. t0)
    ws;
  (ws, !i)

(* Window medians: robust to one noisy slice of the run. *)
let window_median ws f = Stat.median (Array.map f ws)

(* A deployment's end-to-end values by metric name, one per window. *)
let window_values ws =
  let q h p = if Hist.count h = 0 then nan else Hist.quantile h p in
  let per f = Array.to_list (Array.map f ws) in
  [
    ("publish_eps", per (fun w -> float_of_int w.ops /. (w.dur /. 1e9)));
    ("publish_p50_us", per (fun w -> q w.pub 0.5 /. us));
    ("publish_p99_us", per (fun w -> q w.pub 0.99 /. us));
    ("notify_p50_us", per (fun w -> q w.notif 0.5 /. us));
    ("notify_p99_us", per (fun w -> q w.notif 0.99 /. us));
  ]

let window_detail ws =
  let total f = Array.fold_left (fun a w -> a + f w) 0 ws in
  ( "closed_loop",
    Json.Obj
      [
        ("windows", Json.Int (Array.length ws));
        ("publishes", Json.Int (total (fun w -> w.ops)));
        ("publish_samples", Json.Int (total (fun w -> Hist.count w.pub)));
        ("notify_samples", Json.Int (total (fun w -> Hist.count w.notif)));
      ] )

let churn_values samples =
  let s = Stat.summarize samples in
  ( [ ("churn_p50_us", [ s.Stat.p50 /. us ]); ("churn_p99_us", [ s.Stat.p99 /. us ]) ],
    ("churn_us", Out.timing s ~scale:us) )

let cmp_value (ops : Ops.t) =
  float_of_int ops.Ops.comparisons /. float_of_int (max 1 ops.Ops.events)

(* Every end-to-end value a deployment reports, with its unit, and
   whether BENCHMARK.json gates it. The ungated ones are reported in
   the detail block only: on the reference host their run-to-run spread
   over ten seeds (0.3 for notify_p50_us on agg-churn, up to 1.1 for
   the p99s) exceeds any usable bound. *)
let units =
  [
    ("setup_s", "s", true); ("publish_eps", "events/s", true);
    ("publish_p50_us", "us", true); ("publish_p99_us", "us", false);
    ("notify_p50_us", "us", false); ("notify_p99_us", "us", false);
    ("churn_p50_us", "us", true); ("churn_p99_us", "us", false);
    ("comparisons_per_event", "count", true); ("rss_mb", "MB", true);
  ]

(* Each run deploys [count] populations drawn from its seed, one after
   another, each measured for an equal share of the run. A metric is
   the median over every deployment's windows (one value per deployment
   where there are no windows); comparisons_per_event, a deterministic
   count, is the deployments' mean. Spreading a run over several
   populations is what keeps run-to-run spread (different seeds) small:
   one 500-profile population alone moves the comparison count by
   several percent. A workload reports only the metrics its
   deployments produce (net-pubsub has no churn). *)
let deployments out ~seed ~seconds ~count ~inputs one =
  let deps =
    List.init count (fun d ->
        Gc.compact ();
        let inp = inputs ~seed:(Inputs.sub_seed ~seed d) in
        one out inp ~seconds:(seconds /. float_of_int count))
  in
  let ungated =
    List.filter_map
      (fun (name, unit_, gated) ->
        let vs =
          Array.of_list
            (List.concat_map
               (fun (values, _) -> Option.value ~default:[] (List.assoc_opt name values))
               deps)
        in
        let v =
          if name = "comparisons_per_event" then
            Array.fold_left ( +. ) 0.0 vs /. float_of_int (Array.length vs)
          else Stat.median vs
        in
        if vs = [||] then None
        else if gated then begin
          Out.metric out name unit_ v;
          None
        end
        else Some (name, Json.Obj [ ("value", Json.number v); ("unit", Json.Str unit_) ]))
      units
  in
  Out.detail out "ungated_metrics" (Json.Obj ungated);
  Out.detail out "deployments"
    (Json.List
       (List.map
          (fun (values, detail) ->
            Json.Obj
              (( "values",
                 Json.Obj
                   (List.map
                      (fun (k, vs) -> (k, Json.List (List.map Json.number vs)))
                      values) )
              :: detail))
          deps))

let snapshot_ops (o : Ops.t) =
  { Ops.comparisons = o.Ops.comparisons; node_visits = o.Ops.node_visits;
    events = o.Ops.events; matches = o.Ops.matches }

(* {1 In-process probes} *)

(* The null handlers' shared probe: a delivery count, the first
   handler's time for the publish being timed, and on sampled publishes
   the subscription keys that fired. *)
type probe = {
  mutable delivered : int;
  mutable stamp : bool;
  mutable first : float;
  mutable record : bool;
  mutable got : int list;
}

let probe () = { delivered = 0; stamp = false; first = 0.0; record = false; got = [] }

let handler p key (_ : Notification.t) =
  p.delivered <- p.delivered + 1;
  if p.stamp && p.first = 0.0 then p.first <- Stat.now_ns ();
  if p.record then p.got <- key :: p.got

(* One timed publish: latency from the call, and to the first handler.
   [around w] wraps the call (the traced run puts a span there on some
   windows). *)
let timed_publish ?(around = fun _ f -> f ()) p w b e =
  p.stamp <- true;
  p.first <- 0.0;
  let t0 = Stat.now_ns () in
  let n = around w (fun () -> Broker.publish b e) in
  let t1 = Stat.now_ns () in
  p.stamp <- false;
  Hist.add w.pub (t1 -. t0);
  if p.first > 0.0 then Hist.add w.notif (p.first -. t0);
  n

let self_rss () = Host.vm_hwm_mb "self"

(* The subscriber name of churn step [c]: an existing subscriber of the
   population adds and later drops one more profile. The broker keeps a
   metrics series per distinct subscriber name forever, and the
   registry lookup is linear, so fresh names would make every later
   subscribe slower than the last. *)
let churn_name (inp : Inputs.t) c =
  Printf.sprintf "s%d" (c mod Array.length inp.Inputs.profiles)

(* {1 paper-inproc} *)

type inproc = { broker : Broker.t; probe : probe; mutable cmp : Ops.t option }

let paper_setup (inp : Inputs.t) () =
  let p = probe () in
  let b = Deploy.broker ~metrics:(Metrics.create ()) Deploy.paper in
  Deploy.populate b inp.Inputs.profiles (handler p);
  { broker = b; probe = p; cmp = None }

(* The closed loop over the pool: every publish's delivery count is
   checked against Naive's; every fourth publish is timed. *)
let paper_loop ?around out (inp : Inputs.t) ~expected st ~seconds =
  let b = st.broker and p = st.probe in
  let step w i =
    let k = i land Inputs.mask in
    let e = inp.Inputs.pool.(k) in
    let n =
      if i land 3 = 0 then timed_publish ?around p w b e else Broker.publish b e
    in
    if n <> expected.(k) then
      Out.fail out (Printf.sprintf "publish %d: %d notifications, reference %d" i n expected.(k));
    if i = n_cmp - 1 then st.cmp <- Some (snapshot_ops (Broker.ops b))
  in
  let ws, n = closed_loop ~warm:n_cmp ~seconds ~windows:(max 2 (int_of_float seconds)) step in
  Out.attempt out n;
  ws

(* Exact subscription sets for a sample of the pool. *)
let paper_identity out (inp : Inputs.t) st =
  let reference = Inputs.reference inp.Inputs.profiles in
  let p = st.probe in
  p.record <- true;
  for k = 0 to Inputs.pool_size - 1 do
    if k land 15 = 0 then begin
      p.got <- [];
      ignore (Broker.publish st.broker inp.Inputs.pool.(k));
      Out.attempt out 1;
      if List.sort compare p.got <> reference inp.Inputs.pool.(k) then
        Out.fail out (Printf.sprintf "pool event %d: wrong subscriptions" k)
    end
  done;
  p.record <- false

(* Churn on the deployed broker, after the publish loop, for [seconds]:
   subscribe a fresh profile and publish one pool event, then
   unsubscribe it and publish the event again. This broker is not
   aggregated, so subscribe and unsubscribe only edit the profile set,
   and the next match rebuilds the decomposition and the matcher; each
   timing therefore covers the call and the publish that pays for it.
   Both publishes are checked against the reference. A time budget
   rather than a pair count spreads the samples over enough of the run
   to average out the host's second-to-second speed changes. *)
let paper_churn out (inp : Inputs.t) ~expected st ~seconds =
  let buf = Stat.Buf.create () in
  let deadline = Stat.now_ns () +. (seconds *. 1e9) in
  let c = ref 0 in
  let check n want =
    if n <> want then
      Out.fail out (Printf.sprintf "churn publish: %d notifications, reference %d" n want)
  in
  while Stat.now_ns () < deadline do
    let prof = inp.Inputs.fresh.(!c mod Array.length inp.Inputs.fresh) in
    let k = !c land Inputs.mask in
    let e = inp.Inputs.pool.(k) in
    let t0 = Stat.now_ns () in
    let id =
      Broker.subscribe st.broker ~subscriber:(churn_name inp !c) ~profile:prof
        (Deploy.null_handler 0)
    in
    let n_sub = Broker.publish st.broker e in
    let t1 = Stat.now_ns () in
    let ok = Broker.unsubscribe st.broker id in
    let n_unsub = Broker.publish st.broker e in
    let t2 = Stat.now_ns () in
    Stat.Buf.add buf (t1 -. t0);
    Stat.Buf.add buf (t2 -. t1);
    Out.attempt out 4;
    if not ok then Out.fail out "unsubscribe of a live subscription returned false";
    check n_sub (expected.(k) + Bool.to_int (Genas_profile.Profile.matches Inputs.schema prof e));
    check n_unsub expected.(k);
    incr c
  done;
  Stat.Buf.to_array buf

let check_broker out b =
  let dl = Genas_ens.Deadletter.length (Broker.deadletter b) in
  if dl > 0 then Out.fail out (Printf.sprintf "%d dead-lettered notifications" dl)

(* {1 agg-churn} *)

let churn_every = 16

(* Fresh subscriptions live for this many churn steps before they are
   unsubscribed; the last [fifo] profiles of the population seed the
   queue, so the live count stays at 10^4 from the first step. *)
let fifo = 256

type agg = {
  ab : Broker.t;
  aprobe : probe;
  queue : (Broker.sub_id * int) Queue.t;  (** live churnable subscriptions *)
  mutable steps : int;  (** churn steps done *)
  mutable acmp : Ops.t option;
  churn_ns : Stat.Buf.t;
  samples : (int * int * int * int list) list ref option;
}

let agg_key_of_fresh c = -(c + 1)

let agg_setup (inp : Inputs.t) () =
  let p = probe () in
  let b =
    Deploy.broker ~metrics:(Metrics.create ()) ~journal:(Deploy.journal ())
      Deploy.aggregated
  in
  let subs = Array.make (Array.length inp.Inputs.profiles) None in
  Array.iteri
    (fun i prof ->
      subs.(i) <-
        Some
          (Broker.subscribe b ~subscriber:(Printf.sprintf "s%d" i) ~profile:prof
             (handler p i)))
    inp.Inputs.profiles;
  Genas_core.Engine.refresh_keeping_history (Broker.engine b);
  let q = Queue.create () in
  let n = Array.length subs in
  for i = n - fifo to n - 1 do
    Queue.push (Option.get subs.(i), i) q
  done;
  (b, p, q)

(* One churn step: subscribe the next fresh profile, unsubscribe the
   oldest churnable subscription. Each call is timed. *)
let agg_churn_step out (inp : Inputs.t) st =
  let c = st.steps in
  let prof = inp.Inputs.fresh.(c mod Array.length inp.Inputs.fresh) in
  let key = agg_key_of_fresh c in
  let t0 = Stat.now_ns () in
  let id =
    Broker.subscribe st.ab ~subscriber:(churn_name inp c) ~profile:prof
      (handler st.aprobe key)
  in
  let t1 = Stat.now_ns () in
  Queue.push (id, key) st.queue;
  let old, _ = Queue.pop st.queue in
  let t2 = Stat.now_ns () in
  let ok = Broker.unsubscribe st.ab old in
  let t3 = Stat.now_ns () in
  Stat.Buf.add st.churn_ns (t1 -. t0);
  Stat.Buf.add st.churn_ns (t3 -. t2);
  Out.attempt out 2;
  if not ok then Out.fail out "unsubscribe of a live subscription returned false";
  st.steps <- c + 1

(* Every [sample_every]-th publish records which subscriptions fired;
   they are checked against Naive after the loop. *)
let sample_every = 1024

let agg_loop ?around out (inp : Inputs.t) st ~seconds =
  let p = st.aprobe in
  let step w i =
    let k = i land Inputs.mask in
    let sample = Option.is_some st.samples && i land (sample_every - 1) = 0 in
    if sample then begin
      p.record <- true;
      p.got <- []
    end;
    let before = p.delivered in
    let n = timed_publish ?around p w st.ab inp.Inputs.pool.(k) in
    if n <> p.delivered - before then
      Out.fail out
        (Printf.sprintf "publish %d: returned %d, handlers saw %d" i n (p.delivered - before));
    (match st.samples with
    | Some buf when sample ->
      p.record <- false;
      buf := (i, k, st.steps, p.got) :: !buf
    | _ -> ());
    if i = n_cmp - 1 then st.acmp <- Some (snapshot_ops (Broker.ops st.ab));
    if i mod churn_every = churn_every - 1 then agg_churn_step out inp st
  in
  let ws, n = closed_loop ~warm:n_cmp ~seconds ~windows:(max 2 (int_of_float seconds)) step in
  Out.attempt out n;
  ws

(* Rebuild the live set at each sample from the deterministic churn
   schedule and compare against Naive over it. *)
let agg_verify out (inp : Inputs.t) samples =
  let n = Array.length inp.Inputs.profiles in
  let live = Hashtbl.create (2 * n) in
  Array.iteri (fun i prof -> Hashtbl.replace live i prof) inp.Inputs.profiles;
  let queue = Queue.create () in
  for i = n - fifo to n - 1 do
    Queue.push i queue
  done;
  let steps = ref 0 in
  Array.iter
    (fun (i, k, at_steps, got) ->
      while !steps < at_steps do
        let c = !steps in
        let key = agg_key_of_fresh c in
        Hashtbl.replace live key inp.Inputs.fresh.(c mod Array.length inp.Inputs.fresh);
        Queue.push key queue;
        Hashtbl.remove live (Queue.pop queue);
        incr steps
      done;
      let keys = Array.of_seq (Hashtbl.to_seq_keys live) in
      let pset = Profile_set.create Inputs.schema in
      Array.iteri (fun id key -> Profile_set.add_with_id pset ~id (Hashtbl.find live key)) keys;
      let want =
        List.sort compare
          (List.map (fun id -> keys.(id)) (Naive.match_event (Naive.build pset) inp.Inputs.pool.(k)))
      in
      if List.sort compare got <> want then
        Out.fail out (Printf.sprintf "publish %d: wrong subscriptions" i))
    samples

let agg_state ?(samples = true) (b, p, q) =
  {
    ab = b;
    aprobe = p;
    queue = q;
    steps = 0;
    acmp = None;
    churn_ns = Stat.Buf.create ();
    samples = (if samples then Some (ref []) else None);
  }

(* {1 net-pubsub} *)

(* Open-loop ladder, events/s, and each rung's share of the run; the
   reference rung, where the latency metrics are read, gets four. The
   top rungs sit just under and at the host's closed-loop capacity
   (about 20-40k events/s on one core), where a rung of 40k would only
   measure backlog. *)
let ladder = [ (2_000., 1); (5_000., 4); (10_000., 1); (15_000., 1); (20_000., 1) ]

let reference_rate = 5_000.

(* One more share runs the publisher closed-loop for publish_eps. *)
let shares = List.fold_left (fun a (_, s) -> a + s) 1 ladder

let latency_limit_us = 1000.

let rung_json sink (r : Net.rung) =
  let pub = Stat.summarize r.Net.pub_ns in
  let notif = Stat.summarize (Net.notify_ns sink r) in
  let late = Stat.summarize r.Net.late_ns in
  ( pub,
    notif,
    late,
    Json.Obj
      [
        ("rate", Json.number r.Net.rate);
        ("events", Json.Int r.Net.n);
        ("publish_us", Out.timing pub ~scale:us);
        ("notify_us", Out.timing notif ~scale:us);
        ("lateness_us", Out.timing late ~scale:us);
        ("drained", Json.Bool r.Net.drained);
        ("errors", Json.Int r.Net.errors);
      ] )


(* {1 The workloads} *)

(* Between set-up and the timed loop: collect set-up's garbage, so every
   deployment's loop starts from the same heap state and the major GC's
   cycles land at the same points of the stream in every run. *)
let settle () = Gc.compact ()

let paper_one out (inp : Inputs.t) ~seconds =
  let expected = Inputs.expected_counts inp in
  Host.reset_peak ();
  let st, setup_s = time_s (paper_setup inp) in
  settle ();
  let ws = paper_loop out inp ~expected st ~seconds:(seconds *. 0.8) in
  let rss = self_rss () in
  paper_identity out inp st;
  let churn, churn_detail =
    churn_values (paper_churn out inp ~expected st ~seconds:(seconds *. 0.2))
  in
  check_broker out st.broker;
  let cmp = Option.get st.cmp in
  Deploy.discard st.broker;
  ( (("setup_s", [ setup_s ]) :: window_values ws)
    @ churn
    @ [ ("comparisons_per_event", [ cmp_value cmp ]); ("rss_mb", [ rss ]) ],
    [
      window_detail ws;
      churn_detail;
      ("adaptive_rebuilds", Json.Int (Broker.rebuilds st.broker));
    ] )

let paper_inproc out ~seed ~seconds =
  deployments out ~seed ~seconds ~count:6 ~inputs:Inputs.paper paper_one

let agg_one out (inp : Inputs.t) ~seconds =
  Host.reset_peak ();
  let setup, setup_s = time_s (agg_setup inp) in
  settle ();
  let st = agg_state setup in
  let ws = agg_loop out inp st ~seconds in
  let rss = self_rss () in
  Option.iter (fun buf -> agg_verify out inp (Array.of_list (List.rev !buf))) st.samples;
  check_broker out st.ab;
  let churn, churn_detail = churn_values (Stat.Buf.to_array st.churn_ns) in
  let snapshots =
    Option.fold ~none:0 ~some:Genas_ens.Journal.snapshots_written (Broker.wal st.ab)
  in
  let epochs = Genas_core.Engine.epoch (Broker.engine st.ab) in
  let per_event =
    float_of_int (Broker.notifications st.ab) /. float_of_int (max 1 (Broker.published st.ab))
  in
  let cmp = Option.get st.acmp in
  Deploy.discard st.ab;
  ( (("setup_s", [ setup_s ]) :: window_values ws)
    @ churn
    @ [ ("comparisons_per_event", [ cmp_value cmp ]); ("rss_mb", [ rss ]) ],
    [
      window_detail ws;
      churn_detail;
      ("churn_steps", Json.Int st.steps);
      ("epoch_swaps", Json.Int epochs);
      ("notifications_per_event", Json.number per_event);
      ("snapshots", Json.Int snapshots);
    ] )

let agg_churn out ~seed ~seconds =
  deployments out ~seed ~seconds ~count:4 ~inputs:Inputs.agg agg_one

let net_one out (inp : Inputs.t) ~seconds =
  let expected = Inputs.expected_counts inp in
  let reference = Inputs.reference inp.Inputs.profiles in
  let sink = Net.sink (int_of_float (seconds *. 100_000.) + 50_000) in
  let node, setup_s =
    time_s (Net.setup ~dir:(Lazy.force Deploy.work_dir) ~profiles:inp.Inputs.profiles ~sink)
  in
  let unit_s = seconds /. float_of_int shares in
  let seq = ref 0 and expected_total = ref 0 in
  let publish_until ~stop =
    let errors = ref 0 in
    let first = !seq in
    while not (stop !seq) do
      (match Net.publish_seq inp node.Net.pub !seq with
      | Ok _ -> ()
      | Error _ -> incr errors);
      incr seq
    done;
    for s = first to !seq - 1 do
      expected_total := !expected_total + expected.(s land Inputs.mask)
    done;
    for _ = 1 to !errors do
      Out.fail out "publish error"
    done
  in
  (* Warm-up: one closed-loop pass over the pool. *)
  publish_until ~stop:(fun s -> s >= Inputs.pool_size);
  let rungs =
    List.map
      (fun (rate, share) ->
        let n = int_of_float (rate *. unit_s *. float_of_int share) in
        let r = Net.open_loop inp node.Net.pub ~rate ~first_seq:!seq ~n in
        for s = !seq to !seq + n - 1 do
          expected_total := !expected_total + expected.(s land Inputs.mask)
        done;
        seq := !seq + n;
        for _ = 1 to r.Net.errors do
          Out.fail out "open-loop publish error"
        done;
        r.Net.drained <- Net.await_total sink !expected_total ~timeout:0.5;
        if not r.Net.drained then ignore (Net.await_total sink !expected_total ~timeout:5.0);
        r)
      ladder
  in
  let cmp_events = Net.server_counter node.Net.pub "genas_engine_events_total" in
  let cmp = Net.server_counter node.Net.pub "genas_engine_comparisons_total" in
  (* Closed loop: one publisher's throughput over the wire. *)
  let closed_first = !seq in
  let cap = Array.length sink.Net.counts in
  let (), closed_s =
    time_s (fun () ->
        let deadline = Stat.now_ns () +. (unit_s *. 1e9) in
        publish_until ~stop:(fun s -> s >= cap || Stat.now_ns () >= deadline))
  in
  let closed_eps = float_of_int (!seq - closed_first) /. closed_s in
  if not (Net.await_total sink !expected_total ~timeout:10.0) then
    Out.fail out "deliveries still missing 10 s after the last publish";
  Out.attempt out !seq;
  Net.check out inp ~expected ~reference sink ~upto:!seq;
  let rss = Net.teardown node in
  let rows = List.map (rung_json sink) rungs in
  let sustained =
    List.fold_left2
      (fun acc (r : Net.rung) (_, notif, late, _) ->
        if
          r.Net.drained && r.Net.errors = 0
          && notif.Stat.p99 /. us <= latency_limit_us
          && late.Stat.p99 /. us <= latency_limit_us
        then r.Net.rate
        else acc)
      0.0 rungs rows
  in
  (* Latency at the reference rung, per window of 1000 samples. *)
  let reference = List.find (fun (r : Net.rung) -> r.Net.rate = reference_rate) rungs in
  let per_window a f = List.map (fun s -> f s /. us) (Stat.windows a) in
  let pub_ns = reference.Net.pub_ns and notif_ns = Net.notify_ns sink reference in
  ( [
      ("setup_s", [ setup_s ]);
      ("publish_eps", [ closed_eps ]);
      ("publish_p50_us", per_window pub_ns (fun s -> s.Stat.p50));
      ("publish_p99_us", per_window pub_ns (fun s -> s.Stat.p99));
      ("notify_p50_us", per_window notif_ns (fun s -> s.Stat.p50));
      ("notify_p99_us", per_window notif_ns (fun s -> s.Stat.p99));
      ("comparisons_per_event", [ float_of_int cmp /. float_of_int (max 1 cmp_events) ]);
      ("rss_mb", [ rss ]);
    ],
    [
      ("ladder", Json.List (List.map (fun (_, _, _, j) -> j) rows));
      ("sustained_eps", Json.number sustained);
      ("closed_loop_publishes", Json.Int (!seq - closed_first));
    ] )

let net_pubsub out ~seed ~seconds =
  deployments out ~seed ~seconds ~count:5 ~inputs:Inputs.paper net_one
