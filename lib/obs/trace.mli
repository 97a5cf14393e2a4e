(** Causal tracing with a flight recorder.

    A tracer owns at most one {e active} trace at a time (the library
    is synchronous, so one `publish` = one causal tree). Starting a
    trace takes a deterministic sampling decision from a seeded PRNG;
    a sampled trace collects parent/child spans timed by
    {!Clock.now_ns}, optional string attributes, and optionally the
    matcher traversal path of the event. Completed traces land in
    a fixed-size ring buffer — the flight recorder — which can be
    exported as Chrome trace-event JSON ([chrome://tracing],
    [ui.perfetto.dev]) or dumped as text for post-mortems.

    Determinism: with [Clock.set_source] installed and a fixed [seed],
    two identical runs produce byte-identical {!to_chrome} output
    (timestamps are normalized to the earliest span start).

    Cost: components take the tracer as an optional argument; with
    [?tracer:None] the hot path never touches this module. With a
    tracer attached but the trace unsampled, every span call is one
    [match] on [t.current].

    Thread safety: each state transition is serialized under an
    internal mutex (never held across a user callback, so nested
    {!with_span} re-entry cannot deadlock). One tracer may be shared
    by a networked broker's connection threads, its monitor, and a
    client ticker; callers that need whole-trace atomicity (one
    causal tree per publish) serialize publishes themselves, as the
    broker lock already does.

    Across processes, {!context} captures the active (trace id, span
    id) pair for a wire frame and {!with_remote_trace} adopts it on
    the receiving node; {!export} and {!merge_dumps} stitch the
    per-node flight recorders into one Chrome trace afterwards. *)

type t
(** A tracer: sampler state + active trace + completed-trace ring. *)

type status = Ok | Error of string

type span = {
  span_id : int;  (** unique within its trace, in start order *)
  parent : int;  (** [span_id] of the parent, [-1] for the root *)
  span_name : string;
  depth : int;  (** nesting depth at start; root is 0 *)
  start_ns : int64;
  mutable end_ns : int64;  (** [Int64.min_int] while open *)
  mutable status : status;
  mutable attrs : (string * string) list;  (** reverse insertion order *)
}

type path = {
  path_nodes : int array;
      (** profile-tree node ids ([Tree.id] in the filter library), root
          first *)
  path_levels : int array;  (** tree level of each visited node *)
  path_edges : int array;
      (** edge taken at each node: an edge slot [>= 0], [-1] for the
          rest child, [-2] for a reject, [-3] on arrival at the leaf
          level *)
  path_comparisons : int array;  (** comparisons spent at each node *)
  path_matched : int array;  (** profile ids matched, ascending *)
}
(** One event's traversal of the profile tree: the path the compiled
    flat matcher takes, edge for edge and comparison for comparison. *)

type trace = {
  trace_id : int;
  root_name : string;
  mutable spans : span list;  (** reverse start order *)
  mutable span_count : int;
  mutable path : path option;
  remote : (string * int) option;
      (** [(origin node, parent span id)] when the trace id was adopted
          from a wire context via {!with_remote_trace}; [None] for a
          locally rooted trace *)
}

val create :
  ?sample:float ->
  ?capacity:int ->
  ?metrics:Metrics.t ->
  ?on_dump:(string -> unit) ->
  ?clock:(unit -> int64) ->
  seed:int ->
  unit ->
  t
(** [sample] is the probability a new root trace is recorded (default
    [1.0]; the decision stream is seeded, so runs are reproducible).
    [capacity] bounds the flight-recorder ring (default 16; oldest
    trace evicted). With [metrics], span durations fold into the
    registry as [genas_trace_span_duration_ns{span="..."}] histograms
    plus trace/span/error/eviction/dropped-span counters. [on_dump] is
    invoked with the text of every {!record_crash} dump. [clock]
    overrides the span time source for this tracer only (default
    {!Clock.now_ns}) — networked processes run background ticker and
    monitor threads whose own clock reads would perturb a process-wide
    [Clock.set_source] fake clock, so deterministic multi-process runs
    give each tracer a private logical clock instead.

    @raise Invalid_argument if [sample] is outside [0,1] or
    [capacity < 1]. *)

val with_trace : t -> name:string -> (unit -> 'a) -> 'a
(** Run [f] under a new root trace (if sampled). If a trace is already
    active, behaves as {!with_span} — a nested publish joins its
    caller's trace rather than starting a second root. If [f] raises,
    the root span closes with an error status, the trace still lands
    in the ring, and the exception is re-raised. *)

val with_remote_trace :
  t -> name:string -> origin:string -> (int * int) option -> (unit -> 'a) -> 'a
(** [with_remote_trace t ~name ~origin ctx f] runs [f] under a root
    span that {e adopts} a wire trace context: with
    [ctx = Some (trace_id, parent_span)], the new trace reuses
    [trace_id] and records [(origin, parent_span)] as its [remote]
    link, so {!merge_dumps} can parent this node's spans under the
    publisher's. Adoption never consumes a local sampling decision
    (the context's presence means the origin sampled it). With
    [ctx = None] this is exactly {!with_trace}; when a trace is
    already active it nests as a plain child span. *)

val with_span : t -> name:string -> (unit -> 'a) -> 'a
(** Run [f] under a child span of the active trace; a no-op wrapper
    when no trace is active. Exception-safe like {!with_trace}. *)

val start_span : t -> name:string -> span option
(** Explicit span handle for code that cannot use a closure ([None]
    when no trace is active). Must be balanced with {!finish_span}.

    @raise Invalid_argument on a malformed span name (allowed:
    alphanumerics, [_], [.], [-]). *)

val finish_span : t -> ?error:string -> span option -> unit
(** Close a span started with {!start_span}. Any deeper spans still
    open are closed at the same instant with an error status, so
    nesting depth returns to the span's own level; a second finish of
    the same span is a no-op. *)

val add_attr : t -> string -> string -> unit
(** Attach a key/value attribute to the innermost open span (no-op
    when none). *)

val attach_path : t -> path -> unit
(** Attach a matcher traversal path to the active trace (no-op when
    none). *)

val active : t -> bool
(** A sampled trace is currently open. *)

val current_trace_id : t -> int option

val context : t -> (int * int) option
(** The active trace's [(trace_id, innermost open span id)] — the pair
    a Publish/Deliver frame carries so the receiving node's spans can
    parent under this one. [None] when no trace is active; the span id
    is [-1] in the (unreachable in practice) window where a trace is
    open but its root span is not. *)

val depth : t -> int
(** Open-span nesting depth; 0 when idle. *)

val started : t -> int
(** Root traces offered to the sampler (sampled or not). *)

val sampled : t -> int

val completed : t -> int

val evicted : t -> int

val dropped_spans : t -> int
(** Spans overwritten unexported: the summed [span_count] of every
    trace the ring evicted. Also exported as the
    [genas_trace_dropped_spans_total] counter with [?metrics]. *)

val traces : t -> trace list
(** Flight-recorder contents, oldest first. *)

val to_chrome : t -> string
(** The ring as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]): one complete ["ph":"X"] event per span
    ([ts]/[dur] in microseconds, normalized to the earliest span
    start; [tid] = trace id + 1) and one ["ph":"i"] instant event per
    attached matcher path. *)

val export : t -> node:string -> string
(** Versioned, line-based text form of the flight-recorder ring
    ([genas-trace-dump 1] header, the node name, then every completed
    trace with its spans, attrs, remote link, and matcher path) — the
    per-node artifact {!merge_dumps} consumes. Deterministic under a
    deterministic clock. *)

val merge_dumps : string list -> string
(** Stitch per-node {!export} dumps into one Chrome trace-event JSON
    document: one Chrome [pid] per dump (argument order, 1-based),
    each node's timestamps normalized to its own earliest span start
    (no cross-host clock sync assumed), span [args] carrying
    trace/span/parent ids and the node name, and a flow-event arrow
    ([ph "s"]/[ph "f"], name [net.ctx]) from every adopted trace's
    remote parent span to its local root. Traces adopted from a node
    not among the dumps keep their [remote_node]/[remote_parent] args
    but get no arrow.

    @raise Invalid_argument on a malformed or version-mismatched
    dump. *)

val dump : t -> string
(** Human-readable flight-recorder dump: every held trace (plus the
    in-flight one, if any) with relative span offsets, durations,
    statuses, attributes, and matcher paths. *)

val record_crash : t -> reason:string -> string
(** Build a dump prefixed with [reason], remember it as {!last_dump},
    invoke the [on_dump] hook, and return it. Called by the ensemble
    layer when a handler or an injected fault crashes a publish. *)

val last_dump : t -> string option
