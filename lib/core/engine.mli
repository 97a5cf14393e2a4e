(** The distribution-based filter engine — the paper's contribution as
    a facade.

    Owns a profile registry, a decomposition snapshot, statistics
    objects, and the (possibly reordered) profile tree. Churn through
    {!add_profile}/{!remove_profile} is matched incrementally until it
    is folded into a re-plan. All registry churn must go through the
    engine: once the profile set was edited directly (its
    {!Genas_profile.Profile_set.revision} differs from the one the
    engine's own calls left), every entry point raises
    [Invalid_argument]. Every filtered event is recorded in the
    statistics, so a later {!swap_now} re-optimizes for the observed
    distribution; an engine created with an {!Adaptive}
    policy does so by itself when the distribution drifts. *)

type t

val create :
  ?spec:Reorder.spec ->
  ?bins:int ->
  ?metrics:Genas_obs.Metrics.t ->
  ?adaptive:Adaptive.policy ->
  ?aggregate:bool ->
  ?delta_cap:int ->
  Genas_profile.Profile_set.t ->
  t
(** [spec] defaults to {!Reorder.default_spec}.

    [adaptive] attaches a drift clock ({!Adaptive}). It ticks after
    each match has handed out its results (once per batch for
    {!match_batch}) and on journal replay; a due check past the
    threshold re-plans as {!swap_now} does. Every re-plan, whatever
    decided it, resets the clock's baseline ({!Adaptive.replanned}).

    [metrics] attaches the engine to an observability registry: match
    latency and comparisons-per-event histograms, event/match/
    comparison/rebuild counters, tree-size gauges, the pending
    churn gauge, and with [adaptive] the drift clock's series (all
    names in docs/OBSERVABILITY.md). The two histograms observe
    sampled events only: the first event, then one event in 64 on
    average (gaps uniform on 1..127, from a fixed-seed stream); the
    event, match and comparison counters are the engine's {!ops},
    which the registry reads when it exports. Without it
    ([?metrics:None], the default) the match path performs no
    observability work at all — handles are resolved once at
    construction and the hot loop stays allocation-free.

    [aggregate] (default [false]) turns on subscription aggregation:
    the registry is indexed by a {!Genas_profile.Lattice} and the flat
    matcher is compiled over the covering-minimal roots only, with
    churn folded in incrementally and installed by epoch swaps (see
    docs/SCALING.md). [delta_cap] bounds
    the structural changes accumulated between swaps (default 512):
    when exceeded, the churn operation that exceeds it performs the
    swap on the calling thread, so swaps land at the same operation
    live and on journal replay — the match path itself never
    recompiles. With [metrics], aggregation
    adds the absorbed/lattice/pending gauges and the epoch-swap
    counter of docs/OBSERVABILITY.md. *)

val set_spec : t -> Reorder.spec -> unit
(** Install a new reordering spec and rebuild the tree. *)

val profiles : t -> Genas_profile.Profile_set.t

(** {1 Registry churn}

    The engine-mediated subscribe/unsubscribe path. Neither call
    re-plans. Both modes record churn against the compiled matcher in
    a pending [delta] (uncompiled ids, verified directly by the match
    path, one comparison per check) and [dead] (removed compiled ids,
    filtered from its hits); an aggregated engine also maintains the
    covering lattice.

    A plain engine folds pending churn into a re-plan of the full set,
    absorbing the learned event history, on {!set_spec},
    {!swap_now}, {!refresh_keeping_history}, and once the rent the
    pending entries cost the match path — one unit per entry per
    observed event, summed while anything is pending — exceeds three
    times the compiled tree's nodes + edges (the measured ratio of a
    re-plan's cost to a pending check's; docs/PERFORMANCE.md). The
    rule is deterministic, so journal replay folds at the same
    events, and a snapshot records pending churn ({!pending_churn})
    instead of folding it. *)

val add_profile : t -> Genas_profile.Profile.t -> Genas_profile.Profile_set.id
(** Register a profile. Plain engines: the id joins the pending delta.
    Aggregated engines: an insertion into a covered region touches only
    the lattice (no recompilation, ever); a structural insertion (new
    covering root) joins the pending delta and is matched by linear
    scan until the next epoch swap installs a recompiled matcher. *)

val add_profile_with_id :
  t -> id:Genas_profile.Profile_set.id -> Genas_profile.Profile.t -> unit
(** Recovery-path variant under an explicit id
    ({!Genas_profile.Profile_set.add_with_id} semantics). *)

val remove_profile : t -> Genas_profile.Profile_set.id -> bool
(** Remove a registration; [true] if the id was live. An id still in
    the pending delta just leaves it; a compiled entry is marked dead
    (filtered at match time) until the next fold or epoch swap. *)

(** {1 Aggregation} *)

val aggregated : t -> bool

val epoch : t -> int
(** Epoch-swap count: how many recompiled root matchers have been
    installed ([0] on plain engines and before the first swap). *)

val pending_rebuild : t -> int
(** Pending churn: uncompiled delta entries + dead compiled entries
    (new profiles on plain engines, new roots on aggregated ones).
    [0] right after {!swap_now}. *)

val swap_now : t -> unit
(** Compile now, folding all pending churn and absorbing the learned
    event history. Aggregated: an epoch swap over the current
    covering-minimal roots. Plain: a re-plan of the full set under the
    engine's spec from the current statistics. *)

val absorbed_profiles : t -> int
(** Live profiles the lattice absorbs (not in the covering-minimal
    set); [0] on plain engines. *)

val lattice_roots : t -> int
(** Covering-minimal set size (= live profiles on plain engines). *)

val lattice : t -> Genas_profile.Lattice.t option
(** The aggregation index, for inspection. *)

val tree : t -> Genas_filter.Tree.t
(** The pointer tree: kept for [pp]/[explain] and the analytic cost
    model. The match paths execute its compiled flat form. *)

val flat : t -> Genas_filter.Flat.t
(** The compiled flat-array matcher the match paths execute; recompiled
    at every (re)build. *)

val stats : t -> Stats.t

val ops : t -> Genas_filter.Ops.t
(** Cumulative counters over all events filtered by this engine. *)

val match_event :
  t -> Genas_model.Event.t -> Genas_profile.Profile_set.id list
(** Filter one event: folds pending churn if it is due, records the
    event in the
    statistics, counts operations, and returns the matched profile ids
    (ascending).

    Matching runs through the engine's reusable flat cursor, so the
    steady-state path allocates no per-event match lists beyond the
    returned list itself; use {!match_with} to avoid even that. *)

val match_with :
  t -> Genas_model.Event.t -> f:(ids:int array -> len:int -> 'a) -> 'a
(** Zero-allocation variant of {!match_event}: [f ~ids ~len] receives
    the engine's borrowed cursor buffer whose first [len] slots hold
    the matched ids (ascending), and its result is returned. The
    buffer is overwritten by the next match — copy inside [f] if the
    ids must outlive the call. [f] runs before the drift clock ticks,
    so it sees the tree that matched. *)

val match_batch :
  t -> Genas_model.Event.t array -> Genas_profile.Profile_set.id array array
(** Filter a batch: one ascending id array per event, index-aligned.
    Exactly a sequence of {!match_with} calls, one per event in order,
    each result copied out of the borrowed buffer: statistics, pending
    churn folds, operation counters and metrics (the per-event
    histograms' sampling included) advance as they would for those
    calls, except the drift clock, which advances once, after the whole
    batch. *)

val refresh_keeping_history : t -> unit
(** Compile everything now: fold pending churn, absorbing the observed
    event history of the previous statistics ({!Stats.absorb}) —
    learned event distributions survive the profile change instead of
    being restarted. No-op when nothing is pending. Call it after bulk
    subscription, so the first publishes run on a fully compiled
    matcher. *)

val report : t -> Cost.report
(** Analytic expectation for the current tree under the current
    statistics. *)

val adaptive : t -> Adaptive.t option
(** The drift clock, when created with a policy. *)

(** {1 Journal replay} *)

val replay_observe : t -> Genas_model.Event.t -> unit
(** Record one event in the statistics exactly as the match path would
    — including the pending-churn rent and fold — without matching or
    counting operations, then ticks the drift clock. Journal replay
    uses this to regrow the learned distributions and reach the same
    fold points and drift re-plans from the logged event stream. *)

val replay_batch : t -> Genas_model.Event.t array -> unit
(** {!replay_observe} for one {!match_batch}: one clock tick. *)

type churn = {
  delta : Genas_profile.Profile_set.id list;
      (** registered since the last fold, ascending *)
  dead : (Genas_profile.Profile_set.id * Genas_profile.Profile.t) list;
      (** compiled, removed since, with their profiles; ascending *)
  rent : int;  (** rent accrued by the current pending window *)
}
(** A plain engine's pending churn, as a snapshot records it. *)

val pending_churn : t -> churn
(** The pending churn of a plain engine; empty on aggregated engines,
    where recovery rebuilds a fully compiled engine. *)

val restore_churn : t -> churn -> unit
(** Re-establish [churn] on a plain engine just created over the live
    profile set: recompile the set it was recorded against (without
    [delta], with [dead]), then record [delta] and [dead] as pending
    with [rent] accrued, so fold points and comparison counts continue
    exactly as in the engine that recorded it. No-op on aggregated
    engines and for empty churn. *)

val restore_ops : t -> Genas_filter.Ops.t -> unit
(** Overwrite the cumulative operation counters with a journaled
    absolute snapshot; the metrics counters read them. *)
