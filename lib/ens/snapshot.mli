(** Durable broker snapshots.

    A snapshot captures the full recoverable state of a {!Broker} at a
    journal position: the profile set (with exact ids) and a plain
    engine's pending subscription churn, composite
    subscriptions, learned statistics ({!Genas_core.Stats.Export} —
    the estimator histograms of §5's event history), the adaptive
    component's warmup counters and planned-for distributions, the
    delivery supervisor (counters, circuit-breaker states, jitter
    stream position), and the bounded dead-letter queue.

    Snapshots are written atomically: encode → write [snapshot.tmp] →
    fsync → rename over [snapshot.bin] → fsync the directory. A crash
    anywhere before the rename leaves the previous snapshot (or none)
    intact; {!Journal} truncates the log only after the rename, and
    every record carries its operation index, so recovery is idempotent
    across a crash between the two steps. *)

type data = {
  last_op : int;  (** highest journal operation the snapshot covers *)
  fingerprint : string;  (** {!Codec.schema_fingerprint} of the schema *)
  profiles : (int * string * Genas_profile.Profile.t) list;
      (** (profile id, subscriber, profile) *)
  next_profile_id : int;
      (** id counter — past removed ids, which are never reused *)
  composites : (int * string * Composite.expr) list;
  next_comp : int;
  published : int;
  notifications : int;
  ops : Genas_filter.Ops.t;
  stats : Genas_core.Stats.Export.t;
  churn : Genas_core.Engine.churn;
      (** a plain engine's pending churn ({!Genas_core.Engine.pending_churn});
          empty in a version-1 snapshot, which is still read *)
  adaptive : Genas_core.Adaptive.Export.t option;
  supervise : Supervise.Export.t;
  dlq_entries : Deadletter.entry list;
  dlq_total : int;
  dlq_dropped : int;
}

val file : string -> string
(** [file dir] is the snapshot path, [dir/snapshot.bin]. *)

val write :
  ?faults:Fault.t ->
  ?tracer:Genas_obs.Trace.t ->
  dir:string ->
  seed:int ->
  op:int ->
  Genas_model.Schema.t ->
  data ->
  unit
(** Atomically install [data] as [dir]'s snapshot. [op] identifies the
    journal position for crash injection ({!Fault.snapshot_crash}).
    With [tracer], the install runs under a ["snapshot.install"] span
    (closed with an error status if the install crashes).

    @raise Fault.Crashed when the plan injects [Crash_mid_snapshot]
    (a partial temp file is left behind; the install did not happen).
    @raise Sys_error on real I/O failure. *)

val read :
  dir:string ->
  seed:int ->
  Genas_model.Schema.t ->
  (data option, string) result
(** [Ok None] when no snapshot exists (fresh journal, or crash before
    the first snapshot). [Error _] on corruption, a checksum-seed
    mismatch, or a schema fingerprint mismatch — snapshots are
    installed atomically, so unlike a journal tail a malformed one is
    never silently truncated. A leftover [snapshot.tmp] is ignored. *)

val remove : dir:string -> unit
(** Delete any snapshot (and temp file) in [dir] — used when a fresh
    journal is created over an old directory. *)
