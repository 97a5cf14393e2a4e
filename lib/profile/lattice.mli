(** Subscription-aggregation index: an incrementally maintained
    covering lattice.

    The lattice holds every live profile of a registry, grouped into
    equivalence classes (profiles with identical match sets share one
    node, represented by their smallest id) and linked by the covering
    partial order of {!Covering}: a node's parents cover it, its
    children are covered by it. The roots — nodes no other live node
    covers — are exactly the covering-minimal profile set, so
    {!minimal_cover} is a read-off instead of the O(n²) rescan of
    {!Covering.minimal_cover}, and insertion/removal only walk the
    covering chains that actually involve the profile (pruned further
    by per-attribute summary signatures: a constrained-attribute
    bitmask and per-attribute bounding hulls reject most candidate
    pairs without touching interval sets).

    Structural invariants maintained across arbitrary add/remove
    interleavings:

    - roots = the covering-minimal nodes, each represented by the
      smallest live id of its equivalence class (the same id
      {!Covering.minimal_cover} keeps), independent of insertion
      order — this is what makes recovery replay deterministic;
    - every non-root node has at least one parent, and every parent
      covers each of its children, so every live profile is reachable
      from some root through covering links (the matcher's expansion
      path);
    - all ids of an equivalence class resolve to the same node. *)

type t

val create : Genas_model.Schema.t -> t

type add_result =
  | Absorbed of { coverer : Profile_set.id }
      (** The profile fell into an existing covered region (or an
          existing equivalence class); [coverer] is the representative
          of one node covering it. The root set did not change. *)
  | Rooted of { demoted : Profile_set.id list list }
      (** The profile became a new root; [demoted] lists the member
          ids of each former root it now covers. *)

val add : t -> id:Profile_set.id -> Profile.t -> add_result
(** Insert a live profile under its registry id.

    @raise Invalid_argument if [id] is already present. *)

type remove_result =
  | Shrunk of { root : bool; members : Profile_set.id list }
      (** The id left an equivalence class that still has live
          members (listed ascending; head = new representative). *)
  | Dissolved of { root : bool; promoted : Profile_set.id list list }
      (** The id's node dissolved. Children left without any covering
          parent were re-placed: re-linked under other coverers when
          one exists, promoted to roots otherwise — [promoted] lists
          the member ids of each node that became a root. *)

val remove : t -> Profile_set.id -> remove_result option
(** [None] if the id is not present. *)

val mem : t -> Profile_set.id -> bool

val size : t -> int
(** Live profiles indexed. *)

val node_count : t -> int
(** Distinct equivalence classes. *)

val root_count : t -> int

val absorbed : t -> int
(** [size - root_count]: profiles that contribute nothing to the
    covering-minimal set (equivalence duplicates and covered
    profiles). *)

val minimal_cover : t -> (Profile_set.id * Profile.t) list
(** Root representatives with their canonical profiles, ascending by
    id. Equal to [Covering.minimal_cover schema (entries t)]. *)

val covered_by : t -> Profile.t -> Profile_set.id option
(** Representative of some root whose profile covers (or equals) the
    probe; [None] when no live profile covers it. Scans only the
    roots — an entry is covered iff some root covers it. *)

val entries : t -> (Profile_set.id * Profile.t) list
(** Every live id with its node's canonical profile, ascending. *)

val find : t -> Profile_set.id -> Profile.t option
(** Canonical profile of the id's equivalence class. *)

val descendant_count : t -> Profile_set.id -> int
(** Per-entry absorbed count: live profiles in the strict descendant
    region of the id's node (0 for ids absorbing nothing, and for
    unknown ids). *)

val cover_tests : t -> int
(** Cumulative covering tests executed (signature-rejected candidates
    included) — the probe for sublinearity assertions. *)

(** {1 Traversal}

    Match-time expansion for the aggregated engine: starting from
    matched roots, descend covering links, pruning subtrees whose node
    does not match the event (if a coverer rejects an event, everything
    it covers rejects too — the dual: only descend into children when
    the parent matched). Nodes carry a visit stamp so overlapping
    subtrees are expanded once per round. *)

type node

val node_of : t -> Profile_set.id -> node option

val node_members : node -> Profile_set.id list
(** Ascending; head = representative. *)

val begin_visit : t -> unit
(** Start a visit round (invalidates previous marks in O(1)). *)

val expand :
  t ->
  coords:Float.Array.t ->
  verified:bool ->
  node ->
  on_check:(unit -> unit) ->
  emit:(Profile_set.id -> unit) ->
  unit
(** Expand one node in the current visit round. [coords] holds the
    event's axis coordinates ({!Genas_model.Axis.coord}) by natural
    attribute index, [+infinity] where the value lies outside its
    domain. Unless [verified] (the caller already knows the node
    matches), the node is checked first: [on_check] runs once per
    check, before it. A matching node [emit]s each of its members
    (ascending within the node) and expands its children unverified.
    Nodes already reached in this round are skipped.

    The check reads each node's covering signature: the hull of every
    constrained denotation decides it alone when all of them are
    single closed intervals, and an interval-set membership test per
    attribute backs it up otherwise (open bounds, gaps, attributes
    past the signature's mask width). The result equals
    {!Profile.matches} on the node's profiles for events of the
    schema. *)
