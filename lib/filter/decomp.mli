(** Per-schema cell decomposition snapshot.

    For every attribute, the denotations of all registered profiles are
    overlaid into the global subrange cells of §3. All matchers are
    built against one decomposition snapshot. *)

type t = private {
  schema : Genas_model.Schema.t;
  axes : Genas_model.Axis.t array;
  overlays : Genas_interval.Overlay.t array;  (** by attribute index *)
  cell_first : int array array;
  cell_list : int array array;
      (** per attribute, the global cells each profile's denotation
          covers, packed by profile id: the cells of [id] are
          [cell_list.(a).(cell_first.(a).(id))] up to (excluding)
          [cell_list.(a).(cell_first.(a).(id + 1))], ascending; an
          empty range means don't-care. [cell_first.(a)] has one slot
          per id up to the largest live id, plus one. *)
  ids : int array;  (** live profile ids at snapshot time, ascending *)
}

val build : Genas_profile.Profile_set.t -> t

val arity : t -> int

val cell_of_coord : t -> attr:int -> float -> int option
(** Global cell containing a coordinate. *)

val cell_of_event : t -> attr:int -> Genas_model.Event.t -> int option
(** Global cell of an event's value on one attribute ([None] only for
    coordinates outside the axis, which validated events never
    produce). *)

val cells_of_profile : t -> attr:int -> id:int -> int array option
(** Global cells covered by a profile's predicate on [attr]; [None] if
    the profile doesn't constrain the attribute. *)

val referenced_count : t -> attr:int -> int
(** Number of referenced (non-D0) cells — the [m <= 2p-1] of §3. *)

val dont_care_count : t -> attr:int -> int
(** Number of live profiles that leave [attr] unconstrained. *)

val d0_share : t -> attr:int -> float
(** [d_0 / d_j]: zero-subdomain share of the domain size (measure A1's
    raw material). The zero-subdomain is the set of values on which an
    event can be rejected outright, so it is empty — and this returns
    0 — as soon as one live profile doesn't care about the attribute
    (those values still match that profile via the [*] edge; cf. the
    paper's Example 3, where s(a3) = 0 although no range predicate
    covers a3 < 35). *)
