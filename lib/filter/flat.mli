(** Compiled flat-array matcher.

    [compile] lowers a built {!Tree.t} into a cache-friendly
    struct-of-arrays form: a CSR-style node table ([int] attribute ids,
    per-node edge ranges into shared edge arrays, [int] cell targets
    instead of [float] positions, child and rest-node indices) with all
    leaf postings in one shared [int array]. Subtree sharing is
    preserved — two pointer nodes that are physically shared compile to
    the same flat node — so the flat form is never larger than the
    hash-consed DFSA.

    Positions are encoded as dense ranks: per attribute, the distinct
    lookup positions of its cells (ranks and zero-subdomain half-ranks,
    {!Order.table}) are numbered [0 .. d − 1] in ascending order, and an
    out-of-domain value takes [d], the attribute's sentinel. The mapping
    is strictly monotonic and equality-preserving, so every three-way
    comparison the float tree performs has the same outcome here.

    An inner node steps by direct indexing when it can: its {e row}
    holds one 32-bit slot per target its attribute can take
    ([d + 1] slots), each slot the next node (edge child, rest node, or
    stop) and the comparisons the pointer tree's value search charges
    for that target at that node (linear: the stopping edge's index
    + 1, or the edge count when every edge is passed; binary: the
    probes of {!Order.bisect}; hashed: 1). A step is then one slot load
    and one add. A node gets a row only when the row has at most 8
    slots per (edge + 1), the node at most 255 edges (the charge field
    is 8 bits) and the tree fewer than 2{^23} nodes (the next field is
    24 bits); every other node keeps the edge search. Each row is
    filled gap by gap between consecutive edges at compile time and
    replaces its node's edges, so the flat form takes about the memory
    it took with edges alone. Either way the comparison and node-visit
    counters are bit-identical to {!Tree.match_event} — the paper's
    figures are unchanged; only the wall clock moves.

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
(** Edges of the source tree. Only nodes without a row store theirs;
    a row replaces its node's edges. *)

val posting_count : t -> int
(** Total leaf-posting slots in the shared postings array. *)

val row_slots : t -> int
(** 32-bit slots over all node rows: at most 8 × (edges + inner
    nodes) of the source tree. *)

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
