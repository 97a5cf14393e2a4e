(** The profile tree (Gough & Smith's DFSA, §3), parameterized by
    attribute order and per-attribute search strategy.

    One tree level per attribute, in a configurable order; a node's
    out-edges are labelled with the global subrange cells referenced by
    the profiles alive at that node, stored in the defined value order;
    an optional rest-edge — drawn "( * )" in the paper's figures, or
    "*" when it is the only edge — carries the profiles that don't
    care about the attribute. Matching follows a single deterministic path. Identical
    subtrees are hash-consed (two nodes at the same level with the same
    alive profile set share their subtree), which keeps the
    determinized DFSA compact.

    The node representation is exposed read-only so the analytic cost
    model in [lib/core] can traverse the exact structure the matcher
    executes. Treat it as immutable. *)

type node =
  | Leaf of {
      id : int;  (** construction id, see {!id} *)
      ids : int array;  (** matched profile ids, ascending *)
    }
  | Node of {
      id : int;  (** construction id, see {!id} *)
      attr : int;  (** natural attribute index tested at this node *)
      cells : int array;  (** global cell per edge, in scan order *)
      edge_positions : float array;
          (** lookup-table position of each edge's cell, ascending —
              the node-local slice of the paper's position table *)
      children : node array;  (** child per edge *)
      rest : node option;
    }

type config = {
  attr_order : int array;
      (** [attr_order.(level)] = natural attribute index tested at
          that level; a permutation of [0 .. n-1] *)
  strategies : Order.strategy array;
      (** per *natural* attribute index *)
}

type stats = {
  nodes : int;  (** unique inner nodes *)
  leaves : int;  (** unique leaves *)
  edges : int;  (** edges over unique nodes (excluding rest) *)
  postings : int;  (** profile ids over unique leaves *)
  build_visits : int;
      (** construction calls, counting shared subtrees each time they
          are reached — [build_visits - nodes - leaves] quantifies the
          sharing the hash-consing wins *)
}

type t = private {
  decomp : Decomp.t;
  config : config;
  tables : Order.table array;  (** per natural attribute *)
  root : node option;  (** [None] when no profiles are registered *)
  stats : stats;
}

val default_config : Decomp.t -> config
(** Natural attribute order, [Linear Natural_asc] everywhere. *)

exception Construction_blowup of int
(** Raised by [build] when construction exceeds [max_visits]: the
    determinized DFSA is exploding (typical for wide schemas where most
    profiles don't-care most attributes — see DESIGN.md "choosing a
    matcher"; the counting matcher handles those workloads). *)

val build : ?share:bool -> ?max_visits:int -> Decomp.t -> config -> t
(** [share] (default true) enables subtree sharing; disable it only
    for the ablation benchmarks. [max_visits] (default unbounded)
    aborts runaway determinization with {!Construction_blowup}.

    @raise Invalid_argument if [config.attr_order] is not a permutation
    of the schema's attribute indices or [strategies] has the wrong
    length. *)

val id : node -> int
(** The node's construction id: [build] numbers the physically distinct
    nodes and leaves densely over [0 .. stats.nodes + stats.leaves - 1],
    so walkers can memoize in an int array. *)

val match_event :
  ?ops:Ops.t -> t -> Genas_model.Event.t -> Genas_profile.Profile_set.id list
(** Matched profile ids, ascending. Counts one comparison per edge
    examined (linear: early-stopping scan in the defined order; binary:
    probes), as in §4.2. *)

val match_coords :
  ?ops:Ops.t -> t -> float array -> Genas_profile.Profile_set.id list
(** Same, from raw axis coordinates indexed by *natural* attribute
    index (the simulation path: sampled workloads bypass event
    construction). *)

val scan :
  Order.strategy -> edge_positions:float array -> target:float ->
  int * int option
(** The node-level search primitive [match_event] executes:
    [(comparisons, matched edge index)]. Exposed so the analytic cost
    model evaluates exactly the code the matcher runs. *)

val pp : Format.formatter -> t -> unit
(** Render the tree in the style of the paper's Fig. 1/2: one line per
    edge, indented by level, with the attribute name, the cell's
    subrange label (["*"] for a rest-edge), and matched profile ids at
    the leaves. Shared subtrees are printed each time they are reached
    (the logical tree), so keep this to small trees. *)
