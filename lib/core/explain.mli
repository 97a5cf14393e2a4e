(** Match tracing: why did this event (not) match, and what did it
    cost?

    Produces the exact root-to-leaf path the tree matcher takes for one
    event — per level: the node and attribute tested, the value's cell,
    the scan strategy and its comparison count, and the edge taken —
    ending in the leaf reached (and its profiles) or the rejection
    point. The comparisons add up to precisely what
    {!Genas_filter.Ops} would record, for the pointer tree and for its
    compiled {!Genas_filter.Flat} form alike. *)

type step = {
  level : int;
  node : int;  (** pointer-tree node id ({!Genas_filter.Tree.id}) *)
  attr : int;  (** natural attribute index tested *)
  attr_name : string;
  cell : int option;
      (** the event value's global cell; [None] outside the axis *)
  strategy : Genas_filter.Order.strategy;
  comparisons : int;
  edges_at_node : int;
  outcome : [ `Edge of int | `Rest | `Reject ];
      (** listed edge followed (its slot) / rest-edge followed /
          rejected here *)
}

type t = {
  steps : step list;  (** root first *)
  leaf : int option;
      (** pointer-tree id of the leaf reached; [None] = rejected *)
  matched : Genas_profile.Profile_set.id list;  (** ascending; [] = rejected *)
  total_comparisons : int;
}

val trace : Genas_filter.Tree.t -> Genas_model.Event.t -> t

val pp : Genas_filter.Tree.t -> Format.formatter -> t -> unit
(** One line per step plus the verdict; [tree] is the one [t] was
    traced in. *)
