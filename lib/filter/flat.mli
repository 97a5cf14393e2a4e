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

    Matching runs through a reusable {!cursor} holding an event image
    ({!Genas_model.Image}), the target scratch buffer, the output
    buffer, and an epoch-stamped seen-array that dedups matched ids
    without clearing between events: the steady-state path performs no
    per-event allocation of match lists or arrays. A cursor belongs to
    one compiled matcher and one thread of control. *)

type t

type cursor

val compile : Tree.t -> t
(** Lower a pointer tree. The tree keeps ownership of [pp]/[explain];
    the flat form only matches. *)

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

val match_into :
  ?ops:Ops.t -> ?image:Genas_model.Image.t -> t -> cursor ->
  Genas_model.Event.t -> int
(** Match one event into the cursor, returning the number of matched
    profile ids (readable via {!matches}, ascending): one table load
    per tabled attribute's image slot, a coordinate lookup otherwise.
    [image], when given, holds [event] already resolved over the
    matcher's schema and the event is not read again; otherwise the
    cursor's own image resolves it. Allocation-free on the steady-state
    path apart from the cell option of an untabled attribute.

    @raise Invalid_argument if the cursor was built for a different
    matcher, or the image for a schema of another arity. *)

val matches : cursor -> int array
(** The cursor's output buffer, borrowed: only the first [n] slots of
    the most recent [match_into] result are meaningful, and the next
    match overwrites them. Copy before storing. *)
