(** Write-ahead journal of broker operations.

    The paper's speedup lives in statistics {e learned from observed
    traffic}; this journal makes them (and the subscriptions that
    consume them) survive a crash. Every state-changing broker
    operation — subscribe, unsubscribe, publish acceptance (with its
    dead-letter appends), dead-letter replay — is appended as one
    length-prefixed, checksummed record after its in-memory effects
    complete, so a crash loses at most the operation in flight, always
    atomically.

    Publish records carry {e absolute} counter snapshots (published,
    notifications, matcher operation counters, the full supervisor
    export) rather than deltas: replay restores exact values, and
    re-executing a lost operation on recovered state reproduces the
    reference run bit-for-bit.

    Every [snapshot_every] appends the {!Broker} takes a {!Snapshot}
    and the journal restarts, bounding both file size and recovery
    time. Recovery reads snapshot + journal tail; a torn or corrupt
    tail (detected by length prefix and seeded FNV-1a 64 checksum) is
    physically truncated and counted — never a crash.

    Records are written into a zero-filled region that the journal
    writes and fsyncs ahead of them, so each record's fsync syncs an
    in-place overwrite, never a change of the file's size. Recovery
    reads frames up to the first zero length field; a tail of zeros
    after them is the unused region, a clean end. {!close} trims the
    region away.

    File layout under the journal directory: [journal.wal] (header
    [GWAL001\n] + seed, then framed records, then zeros while the
    journal is open), [snapshot.bin], and a transient [snapshot.tmp]. *)

type config = {
  dir : string;
  snapshot_every : int;  (** journaled ops between snapshots *)
  fsync : bool;  (** fsync after every append (and header write) *)
  seed : int;  (** checksum seed, stored in the file headers *)
}

val config : ?snapshot_every:int -> ?fsync:bool -> ?seed:int -> string -> config
(** [config dir] with [snapshot_every] defaulting to 512, [fsync] to
    [true], [seed] to a fixed constant.

    @raise Invalid_argument if [snapshot_every < 1]. *)

type op =
  | Subscribe of Codec.prim
      (** written as the subscription's cached [record] bytes *)
  | Subscribe_composite of {
      id : int;
      subscriber : string;
      expr : Composite.expr;
    }
  | Unsubscribe_prim of { id : int }
  | Unsubscribe_comp of { id : int }
  | Publish of {
      events : Genas_model.Event.t array;
      batch : bool;
          (** batch publishes advance the adaptive cadence once for the
              whole array, exactly like the live path *)
      published : int;  (** absolute, after this operation *)
      notifications : int;  (** absolute *)
      ops : Genas_filter.Ops.t;  (** absolute matcher counters *)
      supervise : Supervise.Export.t;  (** absolute supervisor state *)
      new_deadletters : Deadletter.entry list;
          (** entries this operation appended (dead-letter append is
              journaled as part of the publish that caused it) *)
      dlq_total : int;
      dlq_dropped : int;
    }
  | Deadletter_replay of {
      published : int;
      notifications : int;
      supervise : Supervise.Export.t;
      dlq_entries : Deadletter.entry list;
          (** the full queue after the replay pass (replay removes
              entries, so the record replaces rather than appends) *)
      dlq_total : int;
      dlq_dropped : int;
    }

type t

val create : ?metrics:Genas_obs.Metrics.t -> Genas_model.Schema.t -> config -> t
(** Start a {e fresh} journal: creates [dir] if needed, deletes any
    existing snapshot, and truncates [journal.wal], then writes the
    header and a zero region under one fsync. Use {!recover} (via
    [Broker.recover]) to resume an existing directory instead.

    [metrics] registers the [genas_journal_*] family (see
    docs/OBSERVABILITY.md). *)

val append : t -> ?faults:Fault.t -> op -> unit
(** Frame, write, and (per config) fsync one record at the logical end,
    over zeros. A record that does not fit first extends the zero
    region, under an fsync of its own. With a fault plan,
    draws {!Fault.journal_crash} first: [Crash_before_fsync] writes a
    torn prefix of the frame and raises {!Fault.Crashed} — the record
    is {e not} durable; [Crash_after_journal] completes the append and
    fsync, then raises — the record {e is} durable. *)

val observe_snapshot_install : t -> ns:float -> unit
(** Record one snapshot's latency into the
    [genas_journal_snapshot_install_duration_ns] histogram (no-op
    without metrics). The broker times the whole stall the triggering
    operation pays — gathering the state, {!Snapshot.write} and the
    {!wrote_snapshot} restart — and reports it here, since the journal
    owns the [genas_journal_*] family. *)

val snapshot_due : t -> bool
(** [true] once [snapshot_every] records accumulated since the last
    snapshot (or creation). *)

val wrote_snapshot : t -> unit
(** Acknowledge an installed snapshot: restart [journal.wal] in place
    (the header, then zeros over the old records, one fsync) and reset
    the cadence. Call only after {!Snapshot.write}
    returned — the ordering (rename, then truncate) plus per-record op
    indices make a crash between the two steps harmless. *)

val close : t -> unit
(** Trim [journal.wal] to the bytes written (header and records), so a
    cleanly closed journal holds no zero region. A second close does
    nothing. *)

val configuration : t -> config

(** {1 Counters} *)

val ops_logged : t -> int
(** Operations journaled over the broker's lifetime (monotonic across
    snapshots and recoveries) — the index the next record will carry. *)

val base_op : t -> int
(** Lowest op index still retained in [journal.wal] (snapshots restart
    the log, discarding earlier records). [ops_logged] when the current
    log is empty. *)

val events_since :
  t -> since:int -> (int * Genas_model.Event.t array) list * bool
(** Catch-up replay cursor: every [Publish] batch journaled with op
    index [> since], oldest first, each tagged with its op index. The
    boolean is [false] when a snapshot has already discarded part of
    the requested range ([base_op > since + 1]) — the caller saw a gap
    and must resynchronise some other way. Flushes before reading, so
    the result includes every append acknowledged so far; reads only
    the logical bytes, never the zero region. *)

val appends : t -> int
(** Records appended by this handle. *)

val snapshots_written : t -> int

val truncations : t -> int
(** Corrupt-tail truncations performed (at most one per recovery). *)

val replayed_ops : t -> int
(** Tail operations handed to replay by the recovery that created this
    handle (0 for a fresh journal). *)

val size_bytes : t -> int
(** Logical size: header plus records, without the zero region. *)

(** {1 Recovery} *)

type recovered = {
  snapshot : Snapshot.data option;
  tail : op list;
      (** journaled ops not covered by the snapshot, oldest first *)
  truncated : int;  (** 1 if a corrupt tail was truncated, else 0 *)
}

val recover :
  ?metrics:Genas_obs.Metrics.t ->
  Genas_model.Schema.t ->
  config ->
  (recovered * t, string) result
(** Read [dir]'s snapshot and journal, truncate any corrupt tail (a
    tail of zeros is not one), and return the recovered state plus a
    journal handle that writes at the end of the last valid record (op
    indices continue where the log left off). Fails when no journal
    exists, on header/seed mismatch, or when the snapshot itself is
    corrupt. *)
