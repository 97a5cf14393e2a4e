module Prng = Genas_prng.Prng
module Metrics = Genas_obs.Metrics
module Trace = Genas_obs.Trace

type policy = {
  max_attempts : int;
  backoff_ns : float;
  multiplier : float;
  jitter : float;
  jitter_seed : int;
  trip_after : int;
  cooldown : int;
}

let default_policy =
  {
    max_attempts = 1;
    backoff_ns = 1_000_000.0;
    multiplier = 2.0;
    jitter = 0.5;
    jitter_seed = 0x5eed;
    trip_after = 0;
    cooldown = 16;
  }

let retry_policy ?(max_attempts = 3) ?(backoff_ns = 1_000_000.0)
    ?(multiplier = 2.0) ?(jitter = 0.5) ?(jitter_seed = 0x5eed)
    ?(trip_after = 0) ?(cooldown = 16) () =
  { max_attempts; backoff_ns; multiplier; jitter; jitter_seed; trip_after;
    cooldown }

let validate_policy p =
  if p.max_attempts < 1 then
    invalid_arg "Supervise: max_attempts must be at least 1";
  if p.backoff_ns < 0.0 then invalid_arg "Supervise: negative backoff";
  if p.multiplier < 1.0 then
    invalid_arg "Supervise: multiplier must be at least 1";
  if not (p.jitter >= 0.0 && p.jitter <= 1.0) then
    invalid_arg "Supervise: jitter must lie in [0,1]";
  if p.trip_after < 0 then invalid_arg "Supervise: negative trip_after";
  if p.trip_after > 0 && p.cooldown < 1 then
    invalid_arg "Supervise: cooldown must be positive when tripping is enabled"

type circuit_state = Closed | Open | Half_open

(* Closed carries the consecutive terminal-failure count; Open the
   number of deliveries short-circuited since the trip. *)
type circuit = { mutable state : circuit_state; mutable count : int }

type outcome = Delivered | Failed | Short_circuited

type record = {
  seq : int;
  subscriber : string;
  attempts : int;
  backoffs_ns : float list;
  outcome : outcome;
  error : string option;
}

type instruments = {
  backoff_ns_hist : Metrics.histogram;
  deadletter_size : Metrics.gauge;
  circuits_open : Metrics.gauge;
}

let make_instruments registry prefix =
  let n suffix = prefix ^ suffix in
  {
    backoff_ns_hist =
      Metrics.histogram registry (n "_retry_backoff_ns")
        ~help:"Backoff scheduled before each retry (ns)";
    deadletter_size =
      Metrics.gauge registry (n "_deadletter_size")
        ~help:"Dead-letter queue length at the last terminal failure";
    circuits_open =
      Metrics.gauge registry (n "_circuits_open")
        ~help:"Subscriber circuits currently open";
  }

let trace_cap = 4096

type t = {
  policy : policy;
  rng : Prng.t;  (** jitter stream; consumed only when a retry happens *)
  mutable jitter_draws : int;
      (** draws consumed from [rng] so far — journaled so recovery can
          fast-forward a fresh stream to the same position *)
  circuits : (string, circuit) Hashtbl.t;
  dlq : Deadletter.t;
  mutable deliveries : int;
  mutable delivered : int;
  mutable failures : int;  (** failed attempts *)
  mutable retries : int;
  mutable deadlettered : int;
  mutable short_circuited : int;
  mutable trips : int;
  mutable open_circuits : int;
  mutable trace : record list;  (** newest first, bounded *)
  mutable trace_len : int;
  tracer : Trace.t option;
  instruments : instruments option;
}

(* The counters are the supervisor's own tallies, read at export. *)
let read_counters t registry prefix =
  let n (suffix, help, read) = (prefix ^ suffix, help, read) in
  Metrics.counters_of registry
    (List.map n
       [ ("_handler_failures_total",
          "Delivery attempts that raised (including injected faults)",
          fun () -> t.failures);
         ("_retries_total", "Delivery attempts beyond the first",
          fun () -> t.retries);
         ("_deadletters_total",
          "Notifications that failed terminally (dead-lettered)",
          fun () -> t.deadlettered);
         ("_deadletter_dropped_total",
          "Dead-letter entries evicted by the capacity bound",
          fun () -> Deadletter.dropped t.dlq);
         ("_circuit_trips_total",
          "Circuit-breaker trips (including half-open reopens)",
          fun () -> t.trips);
         ("_short_circuited_total",
          "Deliveries skipped because the subscriber's circuit was open",
          fun () -> t.short_circuited) ])

let create ?(policy = default_policy) ?(deadletter_capacity = 1024) ?metrics
    ?tracer ~prefix () =
  validate_policy policy;
  let t =
    {
      policy;
      rng = Prng.create ~seed:policy.jitter_seed;
      jitter_draws = 0;
      circuits = Hashtbl.create 16;
      dlq = Deadletter.create ~capacity:deadletter_capacity ();
      deliveries = 0;
      delivered = 0;
      failures = 0;
      retries = 0;
      deadlettered = 0;
      short_circuited = 0;
      trips = 0;
      open_circuits = 0;
      trace = [];
      trace_len = 0;
      tracer;
      instruments =
        Option.map (fun registry -> make_instruments registry prefix) metrics;
    }
  in
  Option.iter (fun registry -> read_counters t registry prefix) metrics;
  t

let policy t = t.policy

let deadletter t = t.dlq

let with_ins t f = match t.instruments with None -> () | Some ins -> f ins

let circuit t subscriber =
  match Hashtbl.find_opt t.circuits subscriber with
  | None -> Closed
  | Some c -> c.state

(* Shared by every delivery under a disabled breaker. It stays closed
   at count 0: a success rewrites those values, and with
   [trip_after = 0] a failure neither counts nor trips. *)
let no_circuit = { state = Closed; count = 0 }

let circuit_of t subscriber =
  match Hashtbl.find_opt t.circuits subscriber with
  | Some c -> c
  | None ->
    let c = { state = Closed; count = 0 } in
    Hashtbl.replace t.circuits subscriber c;
    c

let set_open_count t delta =
  t.open_circuits <- t.open_circuits + delta;
  with_ins t (fun ins ->
      Metrics.Gauge.set ins.circuits_open (float_of_int t.open_circuits))

let trip t c =
  if c.state <> Open then set_open_count t 1;
  c.state <- Open;
  c.count <- 0;
  t.trips <- t.trips + 1

let close t c =
  if c.state = Open then set_open_count t (-1);
  c.state <- Closed;
  c.count <- 0

(* Only eventful deliveries (a retry, a failure, a short-circuit) are
   traced; callers build the record on those branches only, so a clean
   first-attempt delivery allocates none. *)
let record_trace t r =
  if t.trace_len < trace_cap then begin
    t.trace <- r :: t.trace;
    t.trace_len <- t.trace_len + 1
  end

let dead_letter t notification ~attempts ~error ~seq =
  t.deadlettered <- t.deadlettered + 1;
  Deadletter.push t.dlq { Deadletter.notification; attempts; error; seq };
  with_ins t (fun ins ->
      Metrics.Gauge.set ins.deadletter_size
        (float_of_int (Deadletter.length t.dlq)))

let error_string = function
  | Fault.Injected what -> "injected: " ^ what
  | exn -> Printexc.to_string exn

let backoff_for t ~attempt =
  let base =
    t.policy.backoff_ns *. (t.policy.multiplier ** float_of_int (attempt - 1))
  in
  let b =
    if t.policy.jitter = 0.0 then base
    else begin
      t.jitter_draws <- t.jitter_draws + 1;
      base *. (1.0 -. (t.policy.jitter *. Prng.float t.rng ~bound:1.0))
    end
  in
  with_ins t (fun ins -> Metrics.Histogram.observe ins.backoff_ns_hist b);
  b

(* The steps of [deliver] are top-level functions with explicit
   arguments, not closures over the delivery: a clean delivery then
   allocates nothing but what its handler does. *)

let finish_deliver t ?error dspan =
  match t.tracer with
  | None -> ()
  | Some tr -> Trace.finish_span tr ?error dspan

(* A planned fault replaces the real handler invocation: the
   subscriber is simulated as raising. Retries re-draw. *)
let attempt_raw faults ~subscriber ~handler notification =
  match faults with
  | Some plan when Fault.handler_raises plan ~subscriber ->
    Error (Fault.Injected subscriber)
  | Some _ | None -> (
    match handler notification with
    | () -> Ok ()
    | exception exn -> Error exn)

let attempt_once t faults ~subscriber ~handler notification =
  match t.tracer with
  | Some tr when Trace.active tr ->
    let s = Trace.start_span tr ~name:"deliver.attempt" in
    let r = attempt_raw faults ~subscriber ~handler notification in
    (match r with
    | Ok () -> Trace.finish_span tr s
    | Error exn -> Trace.finish_span tr ~error:(error_string exn) s);
    r
  | Some _ | None -> attempt_raw faults ~subscriber ~handler notification

(* Attempt [attempt] of a delivery, after the [backoffs] (newest
   first) scheduled before the earlier retries. A half-open probe gets
   one attempt. *)
let rec supervised t faults c ~probe ~seq ~subscriber ~handler ~dspan
    ~attempt ~backoffs notification =
  match attempt_once t faults ~subscriber ~handler notification with
  | Ok () ->
    close t c;
    t.delivered <- t.delivered + 1;
    if attempt > 1 then
      record_trace t
        { seq; subscriber; attempts = attempt; backoffs_ns = List.rev backoffs;
          outcome = Delivered; error = None };
    finish_deliver t dspan;
    true
  | Error exn ->
    t.failures <- t.failures + 1;
    if probe || attempt >= t.policy.max_attempts then begin
      let error = error_string exn in
      dead_letter t notification ~attempts:attempt ~error ~seq;
      if probe then trip t c
      else if t.policy.trip_after > 0 then begin
        c.count <- c.count + 1;
        if c.count >= t.policy.trip_after then trip t c
      end;
      record_trace t
        { seq; subscriber; attempts = attempt; backoffs_ns = List.rev backoffs;
          outcome = Failed; error = Some error };
      finish_deliver t ~error dspan;
      (match t.tracer with
      | None -> ()
      | Some tr ->
        ignore
          (Trace.record_crash tr
             ~reason:
               (Printf.sprintf "terminal delivery failure: %s (%s)" subscriber
                  error)));
      false
    end
    else begin
      let backoffs = backoff_for t ~attempt :: backoffs in
      t.retries <- t.retries + 1;
      supervised t faults c ~probe ~seq ~subscriber ~handler ~dspan
        ~attempt:(attempt + 1) ~backoffs notification
    end

let deliver t ?faults ~subscriber ~handler notification =
  let seq = t.deliveries in
  t.deliveries <- seq + 1;
  (* One span per supervised delivery, one per attempt; a terminal
     failure dumps the flight recorder for the post-mortem. *)
  let dspan =
    match t.tracer with
    | Some tr when Trace.active tr ->
      let s = Trace.start_span tr ~name:"deliver" in
      Trace.add_attr tr "subscriber" subscriber;
      s
    | Some _ | None -> None
  in
  (* A disabled breaker keeps no circuits: every delivery shares the
     one that never opens. *)
  let c = if t.policy.trip_after = 0 then no_circuit else circuit_of t subscriber in
  match c.state with
  | Open when c.count + 1 < t.policy.cooldown ->
    c.count <- c.count + 1;
    t.short_circuited <- t.short_circuited + 1;
    dead_letter t notification ~attempts:0 ~error:"circuit open" ~seq;
    record_trace t
      { seq; subscriber; attempts = 0; backoffs_ns = []; outcome = Short_circuited;
        error = Some "circuit open" };
    finish_deliver t ~error:"circuit open" dspan;
    false
  | Closed | Half_open | Open ->
    if c.state = Open then begin
      set_open_count t (-1);
      c.state <- Half_open;
      c.count <- 0
    end;
    supervised t faults c ~probe:(c.state = Half_open) ~seq ~subscriber
      ~handler ~dspan ~attempt:1 ~backoffs:[] notification

let delivered t = t.delivered

let failures t = t.failures

let retries t = t.retries

let deadlettered t = t.deadlettered

let short_circuited t = t.short_circuited

let trips t = t.trips

let trace t = List.rev t.trace

let circuits t =
  Hashtbl.fold (fun s c acc -> (s, c.state, c.count) :: acc) t.circuits []
  |> List.sort compare

module Export = struct
  type nonrec t = {
    deliveries : int;
    delivered : int;
    failures : int;
    retries : int;
    deadlettered : int;
    short_circuited : int;
    trips : int;
    jitter_draws : int;
    circuits : (string * circuit_state * int) list;
  }
end

let export t =
  {
    Export.deliveries = t.deliveries;
    delivered = t.delivered;
    failures = t.failures;
    retries = t.retries;
    deadlettered = t.deadlettered;
    short_circuited = t.short_circuited;
    trips = t.trips;
    jitter_draws = t.jitter_draws;
    circuits = circuits t;
  }

let import t (e : Export.t) =
  if e.Export.jitter_draws < t.jitter_draws then
    Error "Supervise.import: jitter stream ahead of the exported position"
  else begin
    with_ins t (fun ins ->
        Metrics.Gauge.set ins.deadletter_size
          (float_of_int (Deadletter.length t.dlq)));
    (* Fast-forward the jitter stream: re-create positions by discarding
       the draws the original consumed before the export. *)
    for _ = t.jitter_draws + 1 to e.Export.jitter_draws do
      ignore (Prng.float t.rng ~bound:1.0)
    done;
    t.jitter_draws <- e.Export.jitter_draws;
    Hashtbl.reset t.circuits;
    let opens = ref 0 in
    List.iter
      (fun (s, state, count) ->
        if state = Open then incr opens;
        Hashtbl.replace t.circuits s { state; count })
      e.Export.circuits;
    set_open_count t (!opens - t.open_circuits);
    t.deliveries <- e.Export.deliveries;
    t.delivered <- e.Export.delivered;
    t.failures <- e.Export.failures;
    t.retries <- e.Export.retries;
    t.deadlettered <- e.Export.deadlettered;
    t.short_circuited <- e.Export.short_circuited;
    t.trips <- e.Export.trips;
    Ok ()
  end

let pp_outcome ppf = function
  | Delivered -> Format.pp_print_string ppf "delivered"
  | Failed -> Format.pp_print_string ppf "failed"
  | Short_circuited -> Format.pp_print_string ppf "short-circuited"

let pp_record ppf r =
  Format.fprintf ppf "@[<h>#%d %s: %a after %d attempt%s%t%t@]" r.seq
    r.subscriber pp_outcome r.outcome r.attempts
    (if r.attempts = 1 then "" else "s")
    (fun ppf ->
      match r.backoffs_ns with
      | [] -> ()
      | bs -> Format.fprintf ppf " (%d backoff%s)" (List.length bs)
                (if List.length bs = 1 then "" else "s"))
    (fun ppf ->
      match r.error with
      | None -> ()
      | Some e -> Format.fprintf ppf ": %s" e)
