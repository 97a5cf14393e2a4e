(** Streaming histogram estimation of attribute distributions.

    The adaptive algorithm "has to maintain a history of events in
    order to determine the event distribution" (§5). An estimator is a
    fixed-bin streaming histogram over one axis; [estimate] converts
    the current counts into a {!Dist.t} usable by the selectivity
    measures. Discrete axes with at most [bins] inhabited points are
    counted exactly per point. *)

type t

val create : ?bins:int -> Genas_model.Axis.t -> t
(** [bins] defaults to 64. *)

val axis : t -> Genas_model.Axis.t

val add : t -> float -> unit
(** Record one observed coordinate. Out-of-axis coordinates and NaN are
    ignored (counted in [dropped]). *)

val observe : t -> Genas_model.Image.t -> int -> unit
(** [observe t img attr] records attribute [attr] of a resolved event,
    whose domain's axis must be [t]'s: [add] of its coordinate, read
    for a tabled axis of at most 4096 points as one load from a
    slot→bin table that [create] computes with [add]'s own formula.
    Allocation-free. *)

val count : t -> int
(** Number of recorded observations. *)

val dropped : t -> int

val reset : t -> unit

val merge_into : from:t -> t -> unit
(** [merge_into ~from t] adds [from]'s observation counts into [t],
    leaving [from] untouched. Both estimators must have been created
    over the same axis with the same bin count (true for any two
    histograms of the same attribute), so a rebuilt statistics object
    can inherit the history its predecessor learned.

    @raise Invalid_argument on mismatched axes or bin layouts. *)

val estimate : ?smoothing:float -> t -> Dist.t
(** Normalized histogram as a distribution. [smoothing] (default 0) is
    a pseudo-count added to every bin — use a small positive value to
    avoid zero-probability cells when the history is short.

    @raise Invalid_argument if no observations and [smoothing = 0]. *)

(** {1 Serialization}

    A histogram's full observable state as a plain value, for durable
    snapshots. An export is layout-checked on the way back in, so a
    journal written against one schema cannot silently corrupt an
    estimator built for another. *)

module Export : sig
  type t = {
    exact : bool;
    bins : int;
    counts : float array;
    total : int;
    dropped : int;
  }
end

val export : t -> Export.t
(** Deep copy of the current counts and counters. *)

val import : t -> Export.t -> (unit, string) result
(** Replace [t]'s state with the exported one. Fails (leaving [t]
    untouched) unless the bin layout — [bins], [exact], counts length —
    matches exactly. *)

val of_export : Genas_model.Axis.t -> Export.t -> (t, string) result
(** Rebuild a fresh estimator over [axis] holding the exported state.
    Fails when the export's layout is not the one [create] would derive
    for that axis and bin count. *)

val grid : ?bins:int -> Dist.t -> float array
(** Mass on each grid cell: one cell per point of a discrete axis with
    at most [bins] (default 64) points, [bins] equal cells otherwise. *)

val l1 : float array -> float array -> float
(** L1 distance between two mass vectors of the same grid. *)

val l1_on_grid : ?bins:int -> Dist.t -> Dist.t -> float
(** [l1] of the two distributions' {!grid}s. Ranges over [[0, 2]]; the
    adaptive engine treats it as the drift signal.

    @raise Invalid_argument on mismatched axes. *)

val l1_to_estimate : smoothing:float -> float array -> t -> float
(** [l1 g (grid (estimate ~smoothing t))]; when [t]'s bins are the
    default grid's cells, read from the counts without allocating. *)
