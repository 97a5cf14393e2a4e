(** Counting matcher.

    The classic predicate-counting algorithm used by SIFT and
    Le Subscribe (§2's "clustering/simple hybrid" family): per
    attribute, locate the event's cell (one binary search over the
    global cells) and credit every profile whose predicate that cell
    satisfies; a profile matches when its credit equals the number of
    attributes it constrains. All-don't-care profiles match every
    event.

    Cost accounting: cell location costs ⌈log2(#cells)⌉ comparisons
    per attribute, each credit costs one.

    Credits live in a preallocated epoch-stamped [int array] (reset in
    O(1) per event), so matching allocates no per-event tables; the
    scratch makes a matcher single-threaded — share the underlying
    profile set, not the matcher, across domains. *)

type t

val build : Genas_profile.Profile_set.t -> t

val match_event :
  ?ops:Ops.t -> t -> Genas_model.Event.t -> Genas_profile.Profile_set.id list
(** Matched profile ids, ascending. *)
