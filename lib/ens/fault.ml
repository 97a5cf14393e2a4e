module Prng = Genas_prng.Prng

exception Injected of string

type crash_point = Crash_before_fsync | Crash_after_journal | Crash_mid_snapshot

exception Crashed of crash_point

let crash_point_name = function
  | Crash_before_fsync -> "crash-before-fsync"
  | Crash_after_journal -> "crash-after-journal"
  | Crash_mid_snapshot -> "crash-mid-snapshot"

type spec = {
  handler_failure : (string * float) list;
  link_drop : float;
  link_duplicate : float;
  link_delay : float;
  broker_pause : float;
  crash_before_fsync : float;
  crash_after_journal : float;
  crash_mid_snapshot : float;
}

let none =
  {
    handler_failure = [];
    link_drop = 0.0;
    link_duplicate = 0.0;
    link_delay = 0.0;
    broker_pause = 0.0;
    crash_before_fsync = 0.0;
    crash_after_journal = 0.0;
    crash_mid_snapshot = 0.0;
  }

type fault =
  | Handler_raise of { subscriber : string }
  | Link_drop of { src : int; dst : int }
  | Link_duplicate of { src : int; dst : int }
  | Link_delay of { src : int; dst : int }
  | Broker_pause of { node : int }
  | Crash of { point : crash_point; op : int }

let trace_cap = 65536

type t = {
  spec : spec;
  (* One substream per fault category: injecting (or removing) handler
     faults never perturbs the link draws, and vice versa — the same
     seed replays the same per-category decision sequence. *)
  handler_rng : Prng.t;
  link_rng : Prng.t;
  broker_rng : Prng.t;
  crash_rng : Prng.t;
  mutable crashed : bool;
      (** crash points fire at most once per plan: the process that
          would draw a second crash died at the first one *)
  mutable injected : int;
  mutable trace : fault list;  (** newest first, bounded *)
  mutable trace_len : int;
}

let check_prob what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.plan: %s probability out of [0,1]" what)

let plan ~seed spec =
  check_prob "link_drop" spec.link_drop;
  check_prob "link_duplicate" spec.link_duplicate;
  check_prob "link_delay" spec.link_delay;
  check_prob "broker_pause" spec.broker_pause;
  check_prob "crash_before_fsync" spec.crash_before_fsync;
  check_prob "crash_after_journal" spec.crash_after_journal;
  check_prob "crash_mid_snapshot" spec.crash_mid_snapshot;
  List.iter (fun (s, p) -> check_prob ("handler_failure " ^ s) p)
    spec.handler_failure;
  if spec.link_drop +. spec.link_duplicate +. spec.link_delay > 1.0 then
    invalid_arg "Fault.plan: link fault probabilities sum above 1";
  if spec.crash_before_fsync +. spec.crash_after_journal > 1.0 then
    invalid_arg "Fault.plan: journal crash probabilities sum above 1";
  let base = Prng.create ~seed in
  let handler_rng = Prng.split base in
  let link_rng = Prng.split base in
  let broker_rng = Prng.split base in
  (* Split last so pre-existing plans keep their exact per-category
     decision streams (the faults.t cram output is a contract). *)
  let crash_rng = Prng.split base in
  {
    spec;
    handler_rng;
    link_rng;
    broker_rng;
    crash_rng;
    crashed = false;
    injected = 0;
    trace = [];
    trace_len = 0;
  }

let record t fault =
  t.injected <- t.injected + 1;
  if t.trace_len < trace_cap then begin
    t.trace <- fault :: t.trace;
    t.trace_len <- t.trace_len + 1
  end

let handler_raises t ~subscriber =
  match List.assoc_opt subscriber t.spec.handler_failure with
  | None | Some 0.0 -> false
  | Some p ->
    let hit = Prng.bernoulli t.handler_rng ~p in
    if hit then record t (Handler_raise { subscriber });
    hit

let link_fate t ~src ~dst =
  let { link_drop = d; link_duplicate = u; link_delay = y; _ } = t.spec in
  if d = 0.0 && u = 0.0 && y = 0.0 then `Forward
  else begin
    let x = Prng.float t.link_rng ~bound:1.0 in
    if x < d then begin
      record t (Link_drop { src; dst });
      `Drop
    end
    else if x < d +. u then begin
      record t (Link_duplicate { src; dst });
      `Duplicate
    end
    else if x < d +. u +. y then begin
      record t (Link_delay { src; dst });
      `Delay
    end
    else `Forward
  end

let broker_pauses t ~node =
  if t.spec.broker_pause = 0.0 then false
  else begin
    let hit = Prng.bernoulli t.broker_rng ~p:t.spec.broker_pause in
    if hit then record t (Broker_pause { node });
    hit
  end

let journal_crash t ~op =
  let before = t.spec.crash_before_fsync
  and after = t.spec.crash_after_journal in
  if t.crashed || (before = 0.0 && after = 0.0) then None
  else begin
    let x = Prng.float t.crash_rng ~bound:1.0 in
    let point =
      if x < before then Some Crash_before_fsync
      else if x < before +. after then Some Crash_after_journal
      else None
    in
    (match point with
    | Some p ->
      t.crashed <- true;
      record t (Crash { point = p; op })
    | None -> ());
    point
  end

let snapshot_crash t ~op =
  if t.crashed || t.spec.crash_mid_snapshot = 0.0 then false
  else begin
    let hit = Prng.bernoulli t.crash_rng ~p:t.spec.crash_mid_snapshot in
    if hit then begin
      t.crashed <- true;
      record t (Crash { point = Crash_mid_snapshot; op })
    end;
    hit
  end

let crashed t = t.crashed

let injected t = t.injected

let trace t = List.rev t.trace


let pp_fault ppf = function
  | Handler_raise { subscriber } ->
    Format.fprintf ppf "handler-raise %s" subscriber
  | Link_drop { src; dst } -> Format.fprintf ppf "link-drop %d->%d" src dst
  | Link_duplicate { src; dst } ->
    Format.fprintf ppf "link-duplicate %d->%d" src dst
  | Link_delay { src; dst } -> Format.fprintf ppf "link-delay %d->%d" src dst
  | Broker_pause { node } -> Format.fprintf ppf "broker-pause %d" node
  | Crash { point; op } ->
    Format.fprintf ppf "%s op %d" (crash_point_name point) op
