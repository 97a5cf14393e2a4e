(** Compiled flat-array matcher.

    [compile] lowers a built {!Tree.t} into a cache-friendly
    struct-of-arrays form: a CSR-style node table ([int] attribute ids,
    per-node edge ranges into shared edge arrays, [int] cell targets
    instead of [float] positions, child and rest-node indices) with all
    leaf postings in one shared [int array]. Subtree sharing is
    preserved — two pointer nodes that are physically shared compile to
    the same flat node — so the flat form is never larger than the
    hash-consed DFSA.

    Positions are encoded as doubled integer ranks: a referenced cell
    at rank [q] becomes [2q], a zero-subdomain half-rank [q − 0.5]
    becomes [2q − 1], and an out-of-domain value becomes [max_int].
    The mapping is strictly monotonic and equality-preserving, so every
    three-way comparison the float tree performs has the same outcome
    here and the comparison/node-visit counters are bit-identical to
    {!Tree.match_event} — the paper's figures are unchanged; only the
    wall clock moves.

    Matching runs through a reusable {!cursor} holding the target
    scratch buffer, the output buffer, and an epoch-stamped seen-array
    that dedups matched ids without clearing between events: the
    steady-state path performs no per-event allocation of match lists
    or arrays. A cursor belongs to one compiled matcher and one thread
    of control. *)

type t

type cursor

val compile : Tree.t -> t
(** Lower a pointer tree. The tree keeps ownership of [pp]/[explain];
    the flat form only matches. *)

val revision : t -> int
(** Profile-set revision of the underlying decomposition snapshot. *)

val node_count : t -> int
(** Flat nodes (inner + leaves). Equals [stats.nodes + stats.leaves] of
    the source tree — sharing is preserved. *)

val edge_count : t -> int

val posting_count : t -> int
(** Total leaf-posting slots in the shared postings array. *)

val cursor : t -> cursor
(** A fresh cursor sized for [t] (scratch targets, seen-array over the
    live profile-id range, output buffer for the worst-case match
    count). Reusable across any number of events. *)

val match_into : ?ops:Ops.t -> t -> cursor -> Genas_model.Event.t -> int
(** Match one event into the cursor, returning the number of matched
    profile ids (readable via {!matches}/{!iter_matches}, ascending).
    Allocation-free on the steady-state path apart from the boxed
    coordinate options the model layer returns.

    @raise Invalid_argument if the cursor was built for a different
    matcher. *)

(** {2 Packed batches}

    A batch of events resolved once into a dense row-major [int array]
    of per-attribute lookup targets. Matching from the packed form
    touches only int arrays — no boxed values, no model-layer lookups —
    and the packed image is immutable. Match results and operation
    counters are bit-identical to {!match_into} on the source
    events. *)

type packed

val pack_batch : t -> Genas_model.Event.t array -> packed
(** Resolve every event of the batch (in order) to its int targets.
    One pass, no per-event allocation beyond the packed image
    itself. *)

val packed_events : packed -> int

val match_packed_into : ?ops:Ops.t -> t -> cursor -> packed -> int -> int
(** [match_packed_into t cur pk i] matches packed event [i] exactly as
    {!match_into} would match the source event.

    @raise Invalid_argument if the cursor or the packed batch belongs
    to a different matcher, or [i] is out of range. *)

val match_coords_into : ?ops:Ops.t -> t -> cursor -> float array -> int
(** Same, from raw axis coordinates indexed by natural attribute index
    (the simulation path).

    @raise Invalid_argument on an arity mismatch or a foreign
    cursor. *)

val matches : cursor -> int array
(** The cursor's output buffer, borrowed: only the first [n] slots of
    the most recent [match_into] result are meaningful, and the next
    match overwrites them. Copy before storing. *)

val match_count : cursor -> int
(** Matches of the most recent [match_into]. *)

val iter_matches : cursor -> (int -> unit) -> unit
(** Apply to each matched id of the most recent match, ascending. *)

val match_list :
  ?ops:Ops.t -> t -> cursor -> Genas_model.Event.t ->
  Genas_profile.Profile_set.id list
(** Convenience (allocating) wrapper: matched ids, ascending — the
    exact list {!Tree.match_event} returns. *)

val match_batch :
  ?ops:Ops.t -> t -> cursor -> Genas_model.Event.t array ->
  f:(int -> ids:int array -> len:int -> unit) -> unit
(** Match a batch through one cursor: [f i ~ids ~len] is called once
    per event in order, with [ids] the borrowed output buffer whose
    first [len] slots hold event [i]'s matched profile ids (ascending).
    The buffer is overwritten by the next event — copy inside [f] if
    the ids must outlive the call. *)
