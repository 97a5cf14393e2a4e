(** Adaptive filter component (§4 intro and §5).

    "We propose an adaptive filter component that optimizes the profile
    tree for certain applications based on the data distributions" —
    the engine below watches the event stream through the statistics
    objects and re-optimizes the tree when the observed distribution
    has drifted from the one the current tree was planned for. Drift is
    the maximum per-attribute L1 distance between the two
    distributions; the paper's observation that event-order selectivity
    "is a fragile measure, not robust to changes in the distributions"
    is exactly why the threshold is configurable. *)

type policy = {
  warmup : int;
      (** events observed before the first re-optimization (the tree
          starts under the engine's initial spec) *)
  check_every : int;  (** drift check period, in events *)
  drift_threshold : float;
      (** max per-attribute L1 distance ([0..2]) tolerated before a
          rebuild *)
}

val default_policy : policy
(** warmup 500, check every 200, threshold 0.25. *)

type t

val create : ?policy:policy -> ?metrics:Genas_obs.Metrics.t -> Engine.t -> t
(** Wrap an engine. The engine must not be rebuilt behind the adaptive
    component's back (drift is measured against the distributions at
    the last rebuild it performed).

    [metrics] registers check/rebuild counters, a rebuild-duration
    histogram, and a last-drift gauge (names in docs/OBSERVABILITY.md);
    it is independent of the engine's own [?metrics] argument. *)

val engine : t -> Engine.t

val match_event :
  t -> Genas_model.Event.t -> Genas_profile.Profile_set.id list
(** Filter, observe, and re-optimize when due. The check cadence:
    [since_check] accumulates during warmup, so the first drift check
    fires at exactly [seen = warmup] — not [warmup + check_every] —
    even when [warmup < check_every]; later checks run every
    [check_every] events. *)

val match_batch :
  t ->
  Genas_model.Event.t array ->
  Genas_profile.Profile_set.id array array
(** {!Engine.match_batch}, then the adaptive bookkeeping advances by
    the batch size with at most one drift check (after the whole batch
    has been observed — never mid-batch). *)

val rebuilds : t -> int
(** Number of re-optimizations performed so far. *)

val checks : t -> int
(** Number of drift checks performed so far (forced or scheduled). *)

val last_drift : t -> float
(** Drift measured at the most recent check ([0.0] before the first).
    Clamped to [2.0] — the L1 metric's upper bound — when the raw
    drift is infinite (tree never planned from data); the rebuild
    decision itself compares the raw drift against the threshold. *)

val force_check : t -> bool
(** Run a drift check now; [true] if it triggered a rebuild. *)

val note_events : t -> int -> unit
(** Advance the warmup/check bookkeeping by [n] already-observed events
    without matching anything. [match_event]/[match_batch] call this
    internally; it is exposed so journal replay can drive the same
    cadence — the replayed component checks (and rebuilds) at exactly
    the event counts the original did. *)

(** {1 Serialization}

    The durable counters plus the observed-histogram snapshot taken at
    the last rebuild. On import the planned-for grid masses are rebuilt
    from that snapshot exactly as {!Stats.event_dist} would have
    produced them (smoothed estimate, or uniform when the histogram was
    empty); assumed distributions — runtime configuration — are not
    persisted. *)

module Export : sig
  type t = {
    seen : int;
    since_check : int;
    checks : int;
    rebuilds : int;
    last_drift : float;
    planned : Genas_dist.Estimator.Export.t array option;
  }
end

val export : t -> Export.t

val import : t -> Export.t -> (unit, string) result
(** Restore exported state into a freshly created component wrapping an
    engine over the same schema. Fails on arity or histogram-layout
    mismatch. *)
