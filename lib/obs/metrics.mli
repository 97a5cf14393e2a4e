(** Metrics registry: counters, gauges, fixed-bucket histograms.

    A registry is an insertion-ordered collection of named instruments.
    Instruments are identified by (name, labels): registering the same
    identity again returns the existing instrument (so independent
    components can share a registry), while re-registering a name with
    a different instrument kind raises.

    Hot-path cost: an instrument handle is resolved once at component
    construction; [Counter.incr] is one atomic CAS, [Histogram.observe]
    a short mutex-guarded update. Components take the registry as an
    optional argument — with [?metrics:None] they must not touch this
    module at all, keeping the uninstrumented path allocation-free.

    Thread safety: every operation is safe under concurrent use from
    threads and domains. Counters update by compare-and-swap (the
    [max_int] saturation survives contention), gauges are single
    atomic cells, and each histogram serializes its five-field update
    under a private mutex; exporters and accessors read consistent
    per-instrument snapshots.

    Exporters: {!to_json} (canonical JSON snapshot with p50/p90/p99
    histogram readouts) and {!to_prometheus} (Prometheus text format
    with cumulative buckets). Neither can emit a [nan]/[inf] token:
    non-finite values export as [null] (JSON) or [0] (Prometheus). *)

type t
(** A registry. *)

type counter
(** Monotonic integer counter. Saturates at [max_int] instead of
    wrapping, so exported values never decrease. *)

type gauge
(** A float that can go up and down. *)

type histogram
(** Fixed-bucket histogram: per-bucket observation counts plus sum,
    count, min, max. *)

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or look up) a counter. Names must match
    [[a-zA-Z_][a-zA-Z0-9_]*].

    @raise Invalid_argument on a malformed name, or if the (name,
    labels) identity is already registered as a different kind. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  histogram
(** [buckets] are the finite upper bounds (strictly increasing); an
    implicit overflow bucket catches everything above the last bound.
    An observation [v] lands in the first bucket with [v <= bound].
    Defaults to {!default_latency_buckets}. Bounds are fixed at
    registration: a second registration of the same identity returns
    the existing histogram and ignores [buckets]. *)

val release : t -> ?labels:(string * string) list -> string -> unit
(** Every registration of an identity ({!counter}, {!gauge},
    {!histogram}) counts one holder; [release] drops one. When the last
    holder releases, the series is removed: the exporters no longer
    print it, and a later registration of the same identity starts a
    fresh instrument. Handles already resolved keep working but update
    nothing any exporter reads. No-op on an unregistered identity.
    O(1) amortized; lookups of the remaining series stay O(1). *)

val default_latency_buckets : float array
(** Exponential nanosecond bounds, 100 ns … 1 s. *)

val exponential_buckets : start:float -> factor:float -> count:int -> float array
(** [start * factor^i] for [i < count].

    @raise Invalid_argument unless [start > 0], [factor > 1],
    [count >= 1]. *)

module Counter : sig
  val incr : counter -> unit

  val add : counter -> int -> unit
  (** @raise Invalid_argument on a negative amount. *)

  val value : counter -> int
end

module Gauge : sig
  val set : gauge -> float -> unit

  val value : gauge -> float
end

module Histogram : sig
  val observe : histogram -> float -> unit

  val count : histogram -> int

  val sum : histogram -> float

  val buckets : histogram -> (float * int) array
  (** (upper bound, non-cumulative count) per finite bucket. *)

  val overflow : histogram -> int
  (** Observations above the last finite bound. *)

  val percentile : histogram -> float -> float
  (** [percentile h q] for [q] in [0, 1]: the bucket-interpolated
      estimate, clamped to the observed [min, max] range. [nan] on an
      empty histogram (exporters render it as [null]).

      @raise Invalid_argument if [q] is outside [0, 1]. *)
end

val counters : t -> (string * int) list
(** Every registered counter as [("name{label=\"v\",...}", value)]
    (Prometheus-style series names, registration order) — the compact
    form a mesh [Status] frame carries. *)

val to_json : t -> string
(** Canonical JSON snapshot:
    [{"counters": [...], "gauges": [...], "histograms": [...]}] in
    registration order. Histograms carry count, sum, min, max,
    p50/p90/p99, per-bucket counts, and the overflow count. Always
    valid JSON ({!Json.validate} accepts it); non-finite values are
    [null]. *)

val to_prometheus : t -> string
(** Prometheus text exposition format: [# HELP]/[# TYPE] headers,
    cumulative [_bucket{le="..."}] series with a [+Inf] bucket, [_sum]
    and [_count] per histogram. *)
