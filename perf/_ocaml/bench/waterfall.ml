(* The traced run: the workload with a span around the timed calls of
   every other window (traced over untraced is the tracing overhead),
   then the waterfall. Each row drives the workload's own event pool through
   one layer's public entry point on a twin built from the same
   profiles and warmed on the same prefix; adjacent rows differ by one
   layer, so a layer's self time is the difference between them. *)

module Event = Genas_model.Event
module Profile_set = Genas_profile.Profile_set
module Flat = Genas_filter.Flat
module Ops = Genas_filter.Ops
module Engine = Genas_core.Engine
module Broker = Genas_ens.Broker
module Journal = Genas_ens.Journal
module Deadletter = Genas_ens.Deadletter
module Transport = Genas_ens.Transport
module Codec = Genas_ens.Codec
module Client = Genas_ens.Broker_client
module Metrics = Genas_obs.Metrics
module Trace = Genas_obs.Trace
module Json = Genas_obs.Json

let pool_size = Inputs.pool_size

let per_event_ns t0 = (Stat.now_ns () -. t0) /. float_of_int pool_size

(* Interleaved trials: one pass over the pool per row, round-robin, for
   [budget] seconds (at least [min_rounds] rounds after one warm-up
   round); the median ns/event per row. *)
let interleaved ~budget ?(min_rounds = 3) rows =
  let bufs = List.map (fun _ -> Stat.Buf.create ()) rows in
  List.iter (fun (_, pass) -> pass ()) rows;
  let t_end = Stat.now_ns () +. (budget *. 1e9) in
  let rounds = ref 0 in
  while Stat.now_ns () < t_end || !rounds < min_rounds do
    List.iter2
      (fun (_, pass) buf ->
        let t0 = Stat.now_ns () in
        pass ();
        Stat.Buf.add buf (per_event_ns t0))
      rows bufs;
    incr rounds
  done;
  List.map2 (fun (name, _) buf -> (name, Stat.median (Stat.Buf.to_array buf))) rows bufs

let median_of n f = Stat.median (Array.init n (fun _ -> f ()))

let time_ns f =
  let t0 = Stat.now_ns () in
  f ();
  Stat.now_ns () -. t0

(* A twin: the workload's broker configuration, optionally with one
   more layer attached, populated and warmed on one pool pass. *)
let twin ?metrics ?tracer ?journal cfg (inp : Inputs.t) =
  let b = Deploy.broker ?metrics ?tracer ?journal cfg in
  Deploy.populate b inp.Inputs.profiles Deploy.null_handler;
  Array.iter (fun e -> ignore (Broker.publish b e)) inp.Inputs.pool;
  b

let publish_pass (inp : Inputs.t) b () =
  Array.iter (fun e -> ignore (Broker.publish b e)) inp.Inputs.pool

(* An aggregated engine over the population: the lattice twin. *)
let lattice_twin (inp : Inputs.t) =
  let e = Engine.create ~aggregate:true (Profile_set.create Inputs.schema) in
  Array.iter (fun p -> ignore (Engine.add_profile e p)) inp.Inputs.profiles;
  Engine.refresh_keeping_history e;
  e

(* Add then remove [k] fresh profiles, each call timed (us); then the
   swap of the resulting lattice (ms). *)
let lattice_rows out (inp : Inputs.t) e ~k =
  let fresh = inp.Inputs.fresh in
  let ids = Array.make k 0 in
  let add =
    Array.init k (fun i ->
        let p = fresh.(i mod Array.length fresh) in
        time_ns (fun () -> ids.(i) <- Engine.add_profile e p))
  in
  let remove = Array.init k (fun i -> time_ns (fun () -> ignore (Engine.remove_profile e ids.(i)))) in
  Out.metric out "lattice.add_us" "us" (Stat.median add /. 1e3);
  Out.metric out "lattice.remove_us" "us" (Stat.median remove /. 1e3);
  Out.metric out "lattice.roots" "count" (float_of_int (Engine.lattice_roots e));
  Out.metric out "lattice.absorbed" "count" (float_of_int (Engine.absorbed_profiles e));
  Out.metric out "engine.swap_ms" "ms"
    (median_of 3 (fun () -> time_ns (fun () -> Engine.swap_now e)) /. 1e6)

let codec_rows out ~budget (inp : Inputs.t) =
  let frames =
    Array.map
      (fun e ->
        Transport.Publish { token = Event.seq e; origin = "pub"; events = [| e |]; ctx = None })
      inp.Inputs.pool
  in
  let payloads = Array.map Transport.encode_message frames in
  let rows =
    interleaved ~budget
      [
        ("codec.encode_ns", fun () -> Array.iter (fun m -> ignore (Transport.encode_message m)) frames);
        ( "codec.decode_ns",
          fun () -> Array.iter (fun p -> ignore (Transport.decode_message Inputs.schema p)) payloads );
      ]
  in
  List.iter (fun (name, v) -> Out.metric out name "ns" v) rows;
  let bytes = Array.fold_left (fun a p -> a + String.length p) 0 payloads in
  Out.metric out "codec.frame_bytes" "bytes"
    (float_of_int bytes /. float_of_int pool_size +. float_of_int Codec.frame_header_len)

(* Journal rows: the fsync-off and fsync-on twins against the bare one,
   then a forced snapshot at the final population. *)
let journal_rows out ~budget cfg (inp : Inputs.t) ~bare_ns ~wal =
  let nofsync = twin ~journal:(Deploy.journal ~fsync:false ()) cfg inp in
  let fsync = twin ~journal:(Deploy.journal ()) cfg inp in
  let rows =
    interleaved ~budget ~min_rounds:2
      [ ("nofsync", publish_pass inp nofsync); ("fsync", publish_pass inp fsync) ]
  in
  let us_over name = (List.assoc name rows -. bare_ns) /. 1e3 in
  Out.metric out "journal.append_nofsync_us" "us" (us_over "nofsync");
  Out.metric out "journal.append_us" "us" (us_over "fsync");
  Out.metric out "journal.snapshot_ms" "ms"
    (median_of 3 (fun () -> time_ns (fun () -> Broker.snapshot_now fsync)) /. 1e6);
  (* Counters from the measured broker's journal where it has one. *)
  let w = match wal with Some w -> w | None -> Option.get (Broker.wal fsync) in
  Out.metric out "journal.snapshots" "count" (float_of_int (Journal.snapshots_written w));
  (* Bytes per record: file growth over appends between snapshots. *)
  let w' = Option.get (Broker.wal nofsync) in
  Broker.snapshot_now nofsync;
  let s0 = Journal.size_bytes w' and a0 = Journal.appends w' in
  Array.iteri (fun i e -> if i < 256 then ignore (Broker.publish nofsync e)) inp.Inputs.pool;
  Out.metric out "journal.bytes_per_op" "bytes"
    (float_of_int (Journal.size_bytes w' - s0) /. float_of_int (max 1 (Journal.appends w' - a0)));
  Deploy.discard nofsync;
  Deploy.discard fsync

(* Closed-loop round trips against a live node; returns the next seq. *)
let wire_rows out ~budget (inp : Inputs.t) (node : Net.node) ~first_seq =
  let buf = Stat.Buf.create () in
  let seq = ref first_seq in
  let t_end = Stat.now_ns () +. (budget *. 1e9) in
  let cap = first_seq + 2_000_000 in
  while (Stat.now_ns () < t_end || Stat.Buf.length buf < 100) && !seq < cap do
    let t0 = Stat.now_ns () in
    (match Net.publish_seq inp node.Net.pub !seq with
    | Ok _ -> ()
    | Error e -> Out.fail out ("wire publish: " ^ e));
    Stat.Buf.add buf (Stat.now_ns () -. t0);
    incr seq
  done;
  Out.attempt out (!seq - first_seq);
  Out.metric out "wire.rtt_us" "us" (Stat.median (Stat.Buf.to_array buf) /. 1e3);
  !seq

let wire_counters out (node : Net.node) ~queue_max =
  let sub = node.Net.sub and pub = node.Net.pub in
  let count name v = Out.metric out name "count" (float_of_int v) in
  count "wire.queue_depth_max" queue_max;
  count "wire.slow_disconnects" (Net.server_counter pub "genas_net_slow_consumer_disconnects_total");
  count "wire.applied" (Client.applied_total sub);
  count "wire.duplicates_dropped" (Client.duplicates_dropped sub);
  count "wire.reconnects" (Client.reconnects sub + Client.reconnects pub);
  count "wire.forwarded_roots" (List.length (Client.forwarded_tokens sub))

(* Status sampling inside the traced open loop: the server's deepest
   outbound queue, every [every] publishes. *)
let sampling_queue (node : Net.node) ~every =
  let k = ref 0 and deepest = ref 0 in
  let around f =
    let r = f () in
    incr k;
    if !k mod every = 0 then deepest := max !deepest (Net.queue_depth node.Net.pub);
    r
  in
  (around, deepest)

(* The in-process part: traced vs untraced end to end, then the
   broker-level rows. Returns the measured broker's counters. *)
let broker_counters out b =
  let e = Broker.engine b in
  Out.metric out "adaptive.rebuilds" "count" (float_of_int (Broker.rebuilds b));
  Out.metric out "engine.epoch_swaps" "count" (float_of_int (Engine.epoch e));
  Out.metric out "engine.pending_rebuild" "count" (float_of_int (Engine.pending_rebuild e));
  Out.metric out "broker.notifications_per_event" "count"
    (float_of_int (Broker.notifications b) /. float_of_int (max 1 (Broker.published b)));
  Out.metric out "broker.deadletters" "count"
    (float_of_int (Deadletter.length (Broker.deadletter b)))

(* The traced run alternates: odd windows (odd publishes on the wire)
   carry a span, even ones do not, so both halves see the same broker
   state and the same stretch of the host's speed. *)
let traced k = k land 1 = 1

(* Median publish p50 of the traced windows over the untraced ones'. *)
let span_ratio ws =
  let p50 odd =
    let half = List.filter (fun (w : E2e.window) -> traced w.E2e.index = odd) (Array.to_list ws) in
    E2e.window_median (Array.of_list half) (fun w -> Stat.Hist.quantile w.E2e.pub 0.5)
  in
  p50 true /. p50 false

let run ~workload out (inp : Inputs.t) ~seconds =
  let spans = Spans.create () in
  let span name f = Spans.with_span spans name f in
  let around (w : E2e.window) f = if traced w.E2e.index then span "broker.publish" f else f () in
  let e2e_budget = seconds *. 0.3 in
  let row_budget = seconds *. 0.7 /. 4.0 in
  let cfg =
    match workload with
    | "paper-inproc" -> Deploy.paper
    | "net-pubsub" -> Deploy.served
    | _ -> Deploy.aggregated
  in
  let wal = ref None and node = ref None and next_seq = ref 0 in
  let overhead = ref nan and lateness = ref nan and queue_max = ref 0 in
  span ("e2e." ^ workload) (fun () ->
      match workload with
      | "paper-inproc" ->
        let expected = Inputs.expected_counts inp in
        let st = E2e.paper_setup inp () in
        overhead := span_ratio (E2e.paper_loop ~around out inp ~expected st ~seconds:e2e_budget);
        E2e.check_broker out st.E2e.broker;
        broker_counters out st.E2e.broker;
        Deploy.discard st.E2e.broker
      | "agg-churn" ->
        let st = E2e.agg_state ~samples:false (E2e.agg_setup inp ()) in
        overhead := span_ratio (E2e.agg_loop ~around out inp st ~seconds:e2e_budget);
        E2e.check_broker out st.E2e.ab;
        broker_counters out st.E2e.ab;
        (* Keep the journal counters; drop the broker. *)
        wal := Broker.wal st.E2e.ab;
        Broker.close st.E2e.ab
      | _ ->
        let expected = Inputs.expected_counts inp in
        let reference = Inputs.reference inp.Inputs.profiles in
        let sink = Net.sink 4_000_000 in
        let n =
          Net.setup ~dir:(Lazy.force Deploy.work_dir) ~profiles:inp.Inputs.profiles ~sink ()
        in
        node := Some n;
        for s = 0 to pool_size - 1 do
          ignore (Net.publish_seq inp n.Net.pub s)
        done;
        let count = int_of_float (E2e.reference_rate *. e2e_budget) in
        let sample, deepest = sampling_queue n ~every:500 in
        let k = ref 0 in
        let r =
          Net.open_loop
            ~around:(fun f ->
              let on = traced !k in
              incr k;
              if on then span "client.publish" (fun () -> sample f) else sample f)
            inp n.Net.pub ~rate:E2e.reference_rate ~first_seq:pool_size ~n:count
        in
        next_seq := pool_size + count;
        let expected_total = ref 0 in
        for s = 0 to !next_seq - 1 do
          expected_total := !expected_total + expected.(s land Inputs.mask)
        done;
        if not (Net.await_total sink !expected_total ~timeout:10.0) then
          Out.fail out "deliveries still missing 10 s after the last publish";
        Net.check out inp ~expected ~reference sink ~upto:!next_seq;
        Out.attempt out !next_seq;
        let p50 odd =
          Stat.median
            (Array.of_list (List.filteri (fun i _ -> traced i = odd) (Array.to_list r.Net.pub_ns)))
        in
        overhead := p50 true /. p50 false;
        lateness := (Stat.summarize r.Net.late_ns).Stat.p99 /. 1e3;
        queue_max := !deepest;
        broker_counters out (Client.local n.Net.sub));
  Out.metric out "obs.span_overhead" "ratio" !overhead;
  (* In-process rows over the pool. *)
  let bare = twin cfg inp in
  let with_metrics = twin ~metrics:(Metrics.create ()) cfg inp in
  let traced_off =
    twin ~tracer:(Trace.create ~sample:0.0 ~capacity:64 ~seed:1 ()) cfg inp
  in
  let eng = Broker.engine bare in
  let flat = Engine.flat eng in
  let cur = Flat.cursor flat in
  let ops = Ops.create () in
  Array.iter (fun e -> ignore (Flat.match_into ~ops flat cur e)) inp.Inputs.pool;
  Out.metric out "filter.comparisons_per_event" "count" (Ops.per_event ops);
  Out.metric out "filter.matches_per_event" "count"
    (float_of_int ops.Ops.matches /. float_of_int ops.Ops.events);
  let rows =
    span "waterfall.inproc" (fun () ->
        interleaved ~budget:row_budget
          [
            ("filter", fun () -> Array.iter (fun e -> ignore (Flat.match_into flat cur e)) inp.Inputs.pool);
            ( "engine",
              fun () ->
                Array.iter (fun e -> Engine.match_with eng e ~f:(fun ~ids:_ ~len:_ -> ())) inp.Inputs.pool );
            ("observe", fun () -> Array.iter (Engine.replay_observe eng) inp.Inputs.pool);
            ("broker", publish_pass inp bare);
            ("metrics", publish_pass inp with_metrics);
            ("trace_off", publish_pass inp traced_off);
          ])
  in
  let row name = List.assoc name rows in
  Out.metric out "filter.match_ns" "ns" (row "filter");
  Out.metric out "engine.match_ns" "ns" (row "engine");
  Out.metric out "engine.self_ns" "ns" (row "engine" -. row "filter");
  Out.metric out "engine.observe_ns" "ns" (row "observe");
  Out.metric out "broker.publish_ns" "ns" (row "broker");
  Out.metric out "broker.self_ns" "ns" (row "broker" -. row "engine");
  Out.metric out "obs.metrics_ns" "ns" (row "metrics" -. row "broker");
  Out.metric out "obs.trace_off_ns" "ns" (row "trace_off" -. row "broker");
  Deploy.discard with_metrics;
  Deploy.discard traced_off;
  span "waterfall.journal" (fun () ->
      journal_rows out ~budget:row_budget cfg inp ~bare_ns:(row "broker") ~wal:!wal);
  span "waterfall.codec" (fun () -> codec_rows out ~budget:(row_budget /. 2.0) inp);
  span "waterfall.lattice" (fun () ->
      let e = if cfg.Deploy.aggregate then eng else lattice_twin inp in
      lattice_rows out inp e ~k:256);
  Deploy.discard bare;
  (* Wire rows: the measured node on net-pubsub, a fresh one otherwise. *)
  let n, own =
    match !node with
    | Some n -> (n, false)
    | None ->
      let sink = Net.sink 4_000_000 in
      ( Net.setup ~aggregate:cfg.Deploy.aggregate ~dir:(Lazy.force Deploy.work_dir)
          ~profiles:inp.Inputs.profiles ~sink (),
        true )
  in
  let after =
    span "waterfall.wire" (fun () -> wire_rows out ~budget:(row_budget /. 2.0) inp n ~first_seq:!next_seq)
  in
  if own then begin
    (* The generator's lateness and queue depth at the reference rate. *)
    let sample, deepest = sampling_queue n ~every:500 in
    let r =
      Net.open_loop ~around:sample inp n.Net.pub ~rate:E2e.reference_rate ~first_seq:after
        ~n:(int_of_float (E2e.reference_rate *. 0.4))
    in
    Out.attempt out r.Net.n;
    lateness := (Stat.summarize r.Net.late_ns).Stat.p99 /. 1e3;
    queue_max := !deepest
  end;
  wire_counters out n ~queue_max:!queue_max;
  Out.metric out "gen.lateness_p99_us" "us" !lateness;
  ignore (Net.teardown n);
  (* The span file and the per-name self times. *)
  let path =
    Filename.concat Deploy.out_dir
      (Printf.sprintf "trace-%s-seed%d.json" workload inp.Inputs.seed)
  in
  Spans.write spans path;
  Out.detail out "trace_file" (Json.Str path);
  Out.detail out "span_self_ms"
    (Json.Obj
       (List.map
          (fun (name, n, total, self) ->
            ( name,
              Json.Obj
                [
                  ("count", Json.Int n);
                  ("total_ms", Json.number (total /. 1e6));
                  ("self_ms", Json.number (self /. 1e6));
                ] ))
          (Spans.self_times spans)))
