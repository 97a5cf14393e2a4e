(** Metrics registry: counters, gauges, fixed-bucket histograms.

    A registry is an insertion-ordered collection of named instruments.
    Instruments are identified by (name, labels): registering the same
    identity again returns the existing instrument (so independent
    components can share a registry), while re-registering a name with
    a different instrument kind raises.

    Hot-path cost: an instrument handle is resolved once at component
    construction; [Counter.incr] is one atomic CAS, [Histogram.observe]
    a short mutex-guarded update; a tally its owner keeps anyway is
    registered with {!counter_of} and costs nothing per update.
    Components take the registry as an optional argument — with
    [?metrics:None] they must not touch this module at all, keeping the
    uninstrumented path allocation-free.

    Thread safety: every operation is safe under concurrent use from
    threads and domains. Counters update by compare-and-swap (the
    [max_int] saturation survives contention), gauges are single
    atomic cells, and each histogram serializes its five-field update
    under a private mutex; a counter's sources are attached, detached
    and read under the registry's lock. Exporters and accessors read
    consistent per-instrument snapshots.

    Exporters: {!to_json} (canonical JSON snapshot with p50/p90/p99
    histogram readouts) and {!to_prometheus} (Prometheus text format
    with cumulative buckets). Neither can emit a [nan]/[inf] token:
    non-finite values export as [null] (JSON) or [0] (Prometheus). *)

type t
(** A registry. *)

type counter
(** Monotonic integer counter. Saturates at [max_int] instead of
    wrapping, so exported values never decrease. *)

type source
(** One owner's read function on a counter series ({!counter_of}). *)

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

val counter_of :
  t -> help:string -> labels:(string * string) list -> string -> (unit -> int) ->
  source
(** Register [read] as a source of the counter series: an owner that
    already keeps the tally lets the registry read it at export time
    instead of pushing every change. The series reads as its pushed
    adds plus every live source's read, summed over holders like pushed
    adds; each source is one holder. Reads run under the registry's
    lock, from whichever thread exports, so [read] must only load the
    owner's fields and must be non-decreasing. The value never
    decreases between two reads, and is exact once the owner is
    quiescent. The registry keeps [read], and what it reaches, until
    {!detach}. *)

val counters_of : t -> (string * string * (unit -> int)) list -> unit
(** [counters_of t [(name, help, read); ...]]: {!counter_of} for each
    unlabelled series, held for the registry's life. *)

val detach : t -> source -> unit
(** Drop the source's holder, keeping its last read in the series (so
    the value does not drop). Every registration of an identity counts
    one holder, and only a detach drops one: when the last holder is
    dropped, the series is removed. The exporters no longer print it,
    and a later registration of the same identity starts a fresh
    instrument. O(1) amortized; lookups of the remaining series stay
    O(1); a second detach is a no-op. *)

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
