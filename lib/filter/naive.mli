(** Naive matcher: test every profile against every event.

    The "simple algorithms" class of §2. Each predicate evaluation
    costs one comparison; a profile is abandoned at its first failing
    predicate. Serves as the semantic oracle and as the baseline the
    tree algorithms are benchmarked against. *)

type t

val build : Genas_profile.Profile_set.t -> t
(** Snapshot the current profiles. *)

val match_event :
  ?ops:Ops.t -> t -> Genas_model.Event.t -> Genas_profile.Profile_set.id list
(** Matched profile ids, ascending. *)
