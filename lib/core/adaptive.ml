module Decomp = Genas_filter.Decomp
module Estimator = Genas_dist.Estimator
module Metrics = Genas_obs.Metrics

type policy = { warmup : int; check_every : int; drift_threshold : float }

let default_policy = { warmup = 500; check_every = 200; drift_threshold = 0.25 }

type instruments = {
  checks_total : Metrics.counter;
  rebuilds_total : Metrics.counter;
  rebuild_ns : Metrics.histogram;
  last_drift_gauge : Metrics.gauge;
}

let make_instruments registry =
  {
    checks_total =
      Metrics.counter registry "genas_adaptive_checks_total"
        ~help:"Drift checks performed";
    rebuilds_total =
      Metrics.counter registry "genas_adaptive_rebuilds_total"
        ~help:"Drift-triggered tree re-optimizations";
    rebuild_ns =
      Metrics.histogram registry "genas_adaptive_rebuild_duration_ns"
        ~help:"Wall-clock duration of one adaptive rebuild (ns, monotonic)";
    last_drift_gauge =
      Metrics.gauge registry "genas_adaptive_last_drift"
        ~help:"Drift at the most recent check (L1 distance, clamped to [0,2])";
  }

(* What the current tree was planned for, per attribute: the event
   distributions on the drift grid, and the observed histograms that
   are their durable form. *)
type planned = { grids : float array array; hists : Estimator.Export.t array }

type t = {
  policy : policy;
  mutable planned : planned option;  (** [None]: not planned from data *)
  mutable since_check : int;
  mutable seen : int;
  mutable checks : int;
  mutable rebuilds : int;
  mutable last_drift : float;
  instruments : instruments option;
}

let create ?metrics policy =
  if policy.warmup < 0 || policy.check_every <= 0 then
    invalid_arg "Adaptive.create: malformed policy";
  {
    policy;
    planned = None;
    since_check = 0;
    seen = 0;
    checks = 0;
    rebuilds = 0;
    last_drift = 0.0;
    instruments = Option.map make_instruments metrics;
  }

let plan_of stats =
  let hists = (Stats.export stats).Stats.Export.hists in
  let grid attr _ = Estimator.grid (Stats.event_dist stats ~attr) in
  { grids = Array.mapi grid hists; hists }

let replanned t stats =
  t.planned <-
    (if Stats.events_seen stats > 0 then Some (plan_of stats) else None)

(* The largest per-attribute L1 distance on the drift grid; a loop
   keeps the running maximum unboxed. *)
let drift t stats =
  match t.planned with
  | None -> Float.infinity  (* never planned from data: always stale *)
  | Some p ->
    let worst = ref 0.0 in
    for attr = 0 to Array.length p.grids - 1 do
      let d = Stats.grid_drift stats ~attr p.grids.(attr) in
      if d > !worst then worst := d
    done;
    !worst

let check t stats ~replan =
  let d = drift t stats in
  t.checks <- t.checks + 1;
  (* The gauge/readout value is clamped to the L1 metric's range [0,2];
     the rebuild decision below uses the raw (possibly infinite)
     drift, so a never-planned tree always rebuilds regardless of the
     threshold. *)
  t.last_drift <- (if Float.is_finite d then d else 2.0);
  (match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Counter.incr ins.checks_total;
    Metrics.Gauge.set ins.last_drift_gauge t.last_drift);
  if d > t.policy.drift_threshold then begin
    let stats =
      match t.instruments with
      | None -> replan ()
      | Some ins ->
        let stats = Genas_obs.Span.time ins.rebuild_ns replan in
        Metrics.Counter.incr ins.rebuilds_total;
        stats
    in
    (* [replan] went through {!replanned}, which records no baseline
       from empty statistics; a drift re-plan records one anyway. *)
    if Option.is_none t.planned then t.planned <- Some (plan_of stats);
    t.rebuilds <- t.rebuilds + 1;
    true
  end
  else false

(* [since_check] accumulates during warmup, so the first check is due
   at exactly [seen = warmup] (or at the first post-warmup event when
   [warmup < check_every]); subsequent checks every [check_every]. *)
let tick t n =
  if n <= 0 then false
  else begin
    t.seen <- t.seen + n;
    t.since_check <- t.since_check + n;
    let due =
      t.seen >= t.policy.warmup
      && (t.checks = 0 || t.since_check >= t.policy.check_every)
    in
    if due then t.since_check <- 0;
    due
  end

let rebuilds t = t.rebuilds

let checks t = t.checks

let last_drift t = t.last_drift

module Export = struct
  type nonrec t = {
    seen : int;
    since_check : int;
    checks : int;
    rebuilds : int;
    last_drift : float;
    planned : Estimator.Export.t array option;
  }
end

let copy_hist (e : Estimator.Export.t) =
  { e with Estimator.Export.counts = Array.copy e.Estimator.Export.counts }

let export t =
  {
    Export.seen = t.seen;
    since_check = t.since_check;
    checks = t.checks;
    rebuilds = t.rebuilds;
    last_drift = t.last_drift;
    planned = Option.map (fun p -> Array.map copy_hist p.hists) t.planned;
  }

(* Restore the planned grids from the observed histograms, exactly as
   [plan_of] computed them. Assumed (caller-installed) distributions are
   runtime configuration, not durable state; a recovered component
   measures drift against the observed histograms. *)
let restore_planned decomp hx =
  let n = Decomp.arity decomp in
  if Array.length hx <> n then
    Error "Adaptive.import: planned-distribution arity mismatch"
  else
    let rec go i acc =
      if i = n then
        let grids = Array.of_list (List.rev acc) in
        Ok { grids; hists = Array.map copy_hist hx }
      else
        match Estimator.of_export decomp.Decomp.axes.(i) hx.(i) with
        | Error msg -> Error msg
        | Ok est -> go (i + 1) (Estimator.grid (Stats.observed_dist est) :: acc)
    in
    go 0 []

let import t stats (e : Export.t) =
  let ( let* ) = Result.bind in
  let* planned =
    match e.Export.planned with
    | None -> Ok None
    | Some hx -> Result.map Option.some (restore_planned (Stats.decomp stats) hx)
  in
  (match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Counter.add ins.checks_total
      (Stdlib.max 0 (e.Export.checks - t.checks));
    Metrics.Counter.add ins.rebuilds_total
      (Stdlib.max 0 (e.Export.rebuilds - t.rebuilds));
    Metrics.Gauge.set ins.last_drift_gauge e.Export.last_drift);
  t.planned <- planned;
  t.seen <- e.Export.seen;
  t.since_check <- e.Export.since_check;
  t.checks <- e.Export.checks;
  t.rebuilds <- e.Export.rebuilds;
  t.last_drift <- e.Export.last_drift;
  Ok ()
