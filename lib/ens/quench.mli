(** Quenching (after Elvin, §2): "a quenching mechanism that discards
    unneeded information without consuming resources".

    A quench table summarizes, per attribute, the set of values that at
    least one live subscription accepts. A publisher consults it before
    constructing and sending an event: if some attribute value is
    accepted by no subscription, the event cannot match anything and
    need not be published at all. The test is necessary, not
    sufficient — an event passing the quench may still match nothing —
    but it is sound: no deliverable event is ever suppressed. *)

type t

val build : Genas_profile.Profile_set.t -> t

val wanted_coord : t -> attr:int -> float -> bool
(** Is this coordinate of this attribute accepted by at least one
    subscription (directly or via don't-care)? *)

val wanted_event : t -> Genas_model.Event.t -> bool
(** Conjunction of [wanted_coord] over all attributes. [false] means
    the event provably matches no subscription. *)

val wanted_region : t -> attr:int -> Genas_interval.Iset.t -> bool
(** Would {e any} event with this attribute restricted to the region
    pass the per-attribute test? Lets a publisher quench a whole sensor
    range at once. *)

val suppressed : t -> int
(** Events rejected by [wanted_event] so far (its [false] results). *)

val coverage_share : t -> attr:int -> float
(** Measure fraction of the attribute's axis that is wanted — 1.0 as
    soon as one subscription doesn't care about the attribute. *)
