(** Machine-readable matcher benchmark.

    One timing workload (the paper's 500-profile/3-attribute table),
    every matcher in the repository run over the same pre-built event
    pool: the naive and counting baselines, the pointer profile tree
    and its compiled {!Genas_filter.Flat} form per value strategy, a
    skewed workload, the publish paths, and the cost of one full
    re-plan of the table.
    Wall clock is read from the monotonic {!Genas_obs.Clock};
    comparisons/event comes from a separate deterministic
    [Ops]-counted replay of the event pool, so the figures are stable
    across runs even though events/sec is not.

    [genas bench] renders these results; its JSON form is the
    `BENCH_*.json` perf-trajectory record (see docs/PERFORMANCE.md). *)

type result = {
  name : string;  (** e.g. ["flat/v1+a2"], ["publish/untraced"] *)
  matcher : string;
      (** naive|counting|tree|flat|flat-skew|publish|publish-net|plan;
          the [publish-net] rows ([publish/net-untraced] and
          [publish/net-traced-off]) time a loopback
          {!Genas_ens.Broker_client} publish round trip over a Unix
          socket, without and with a never-sampling tracer on both
          ends — their ratio is the derived
          [publish_net_traced_off_vs_untraced] field, the
          disabled-tracing overhead on the networked path *)
  strategy : string;  (** value strategy, or ["n/a"] *)
  timed_events : int;
  events_per_sec : float;
      (** median slice rate: the rows of one group share the budget in
          16 slices taken in turn; the groups are the classic matchers
          (naive to flat-skew), the [publish] rows and the
          [publish-net] rows *)
  comparisons_per_event : float;
  matches_per_event : float;
  plan_ms : float option;
      (** [plan/v1+a2] only: median ms of one re-plan ([Decomp.build],
          [Reorder.build], [Flat.compile]) over [timed_events] trials;
          its [events_per_sec] is re-plans/s, its per-event counts 0 *)
}

type t = {
  profiles : int;
  attributes : int;
  event_pool : int;
  seed : int;
  recommended_domains : int;
  cpu_count : int;  (** host cores (Linux /proc/cpuinfo; else
                        [recommended_domains]) *)
  results : result list;
}

val host_cpu_count : unit -> int

val paper_profiles :
  ?profiles:int -> Genas_prng.Prng.t -> Genas_profile.Profile_set.t
(** The timing table (default 500 profiles) as [run ~seed] draws it
    first from [Prng.create ~seed]. *)

val v1a2 : Genas_core.Reorder.spec
(** The V1 + A2 (descending) spec of every [v1+a2] row. *)

val run : ?profiles:int -> ?seed:int -> ?events:int -> unit -> t
(** [events] (default 50_000) is the per-entry timing budget. *)

(** {1 Profile-count scaling}

    The subscription-aggregation curve (docs/SCALING.md): the
    covering-heavy {!Workload.gen_covering_profiles} population grown
    point by point through {!Genas_core.Engine.add_profile}, churned,
    and published through, once with aggregation and once against the
    plain engine, whose churn waits in a pending delta until a fold
    re-plans the full set. *)

type scale_point = {
  population : int;  (** live profiles at this point *)
  aggregated : bool;
  subscribe_ns : float;
      (** mean sampled latency of one subscribe followed by one
          matched event — the event realizes whatever the churn left
          pending: on the plain engine a delta-path check, or a fold
          into a full replan once the pending churn outweighs the
          compiled tree (the first sample, which meets a whole stride
          of pending subscriptions) *)
  unsubscribe_ns : float;  (** same protocol for removals *)
  publish_eps : float;  (** steady-state single-event match throughput *)
  absorbed : int;  (** {!Genas_core.Engine.absorbed_profiles} *)
  covering_roots : int;  (** {!Genas_core.Engine.lattice_roots} *)
  epoch_swaps : int;  (** {!Genas_core.Engine.epoch} *)
}

type scale = {
  sc_seed : int;
  sc_samples : int;  (** latency samples per phase (aggregated engine) *)
  sc_baseline_samples : int;
      (** latency samples per phase on the plain engine — kept tiny
          because the first sample folds the population into a full
          replan *)
  sc_events : int;  (** timed events per publish measurement *)
  sc_baseline_max : int;
      (** largest population the plain baseline is run at — beyond it
          one full replan of the population is infeasible and only the
          aggregated point is recorded *)
  sc_points : scale_point list;
}

val scale :
  ?points:int list -> ?seed:int -> ?events:int -> ?samples:int ->
  ?baseline_samples:int -> ?baseline_max:int -> unit -> scale
(** [points] defaults to 10³, 10⁴, 10⁵, 10⁶; [baseline_max] to 2×10³
    (the plain replan's tree grows combinatorially on this workload —
    gigabytes of nodes and minutes of build by 10⁴);
    [baseline_samples] to 2 (the first sampled baseline op folds the
    population into a full replan, seconds even at 10³). *)

val scale_to_json : scale -> Genas_obs.Json.t

val to_json : ?scale:scale -> t -> Genas_obs.Json.t
(** The `BENCH_*.json` document: bench/schema_version header, workload
    and host blocks (core count and the runtime's recommended domain
    count), one result object per entry, and derived speedups (flat vs
    tree, and the tracing ratios of the publish rows). With
    [scale], the scaling curve is attached as a ["scaling"] block
    (whose keys deliberately avoid the classic result keys the cram
    suite counts). *)

val table : t -> Report.table
(** Human-readable rendering of the same results. *)
