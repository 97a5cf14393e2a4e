(** Adaptive filter component (§4 intro and §5).

    "We propose an adaptive filter component that optimizes the profile
    tree for certain applications based on the data distributions" —
    an engine created with a policy ({!Engine.create} [?adaptive])
    watches the event stream through the statistics objects and
    re-optimizes the tree when the observed distribution has drifted
    from the one the current tree was planned for. Drift is the maximum
    per-attribute L1 distance between the two distributions; the
    paper's observation that event-order selectivity "is a fragile
    measure, not robust to changes in the distributions" is exactly why
    the threshold is configurable. This module is that engine's drift
    clock; the engine ticks it and performs every re-plan. *)

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

val validate : policy -> unit
(** Rejects a negative [warmup] or a non-positive [check_every]. *)

val create : ?metrics:Genas_obs.Metrics.t -> policy -> t
(** A clock with no baseline; raises [Invalid_argument] when
    {!validate} rejects the policy. [metrics] registers
    check/rebuild counters, a rebuild-duration histogram, and a
    last-drift gauge (names in docs/OBSERVABILITY.md). *)

val tick : t -> int -> bool
(** Advance the clock by [n] observed events; [true] when a drift check
    is due now. [since_check] accumulates during warmup, so the first
    check falls at exactly [seen = warmup] — not [warmup + check_every]
    — even when [warmup < check_every]; later checks fall every
    [check_every] events. *)

val check : t -> Stats.t -> replan:(unit -> Stats.t) -> bool
(** Measure drift of [stats] against the baseline; past the threshold,
    run [replan] (the engine's re-plan, returning the statistics it
    planned from) and count a rebuild. [true] if it re-planned. A drift
    re-plan records a baseline even from empty statistics. *)

val replanned : t -> Stats.t -> unit
(** The baseline rule: every re-plan calls this with the statistics it
    planned from. Statistics holding observations become the baseline;
    empty ones clear it, so the next check sees infinite drift (a tree
    never planned from data is always stale). *)

val rebuilds : t -> int
(** Drift re-plans performed so far. *)

val checks : t -> int
(** Drift checks performed so far (forced or scheduled). *)

val last_drift : t -> float
(** Drift measured at the most recent check ([0.0] before the first).
    Clamped to [2.0] — the L1 metric's upper bound — when the raw
    drift is infinite (no baseline); the rebuild decision itself
    compares the raw drift against the threshold. *)

(** {1 Serialization}

    The durable counters plus the observed-histogram snapshot of the
    baseline. On import the baseline's grid masses are rebuilt from
    that snapshot exactly as {!Stats.event_dist} would have produced
    them (smoothed estimate, or uniform when the histogram was empty);
    assumed distributions — runtime configuration — are not
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

val import : t -> Stats.t -> Export.t -> (unit, string) result
(** Restore exported state into the clock of an engine over the same
    schema, whose statistics are [stats]. Fails on arity or
    histogram-layout mismatch. *)
