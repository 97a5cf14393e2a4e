(** Probability distributions over one attribute axis.

    §3 models each attribute of an event as a random variable whose
    distribution is "given as continuous density functions (for
    continuous values) or discrete probability values (for discrete
    values)". We represent both — and mixtures — as a normalized list
    of piecewise-uniform *pieces* plus point *atoms*. This form is
    closed under quantization onto subrange cells (the reformation of a
    continuous event distribution "as a distribution of, at the most,
    (2p−1) discrete values"), supports exact interval probabilities,
    and samples in O(#pieces). *)

type piece = private { itv : Genas_interval.Interval.t; mass : float }

type t = private {
  axis : Genas_model.Axis.t;
  pieces : piece list;  (** disjoint, in axis order; uniform within *)
  atoms : (float * float) list;  (** (coordinate, mass), sorted *)
}

val axis : t -> Genas_model.Axis.t

val uniform : Genas_model.Axis.t -> t
(** The paper's "equally distributed" data. *)

val of_atoms : Genas_model.Axis.t -> (float * float) list -> t
(** Pure discrete distribution from (coordinate, weight) pairs; weights
    are normalized.

    @raise Invalid_argument on empty/negative/all-zero weights, on
    coordinates outside the axis, or on non-integer coordinates for a
    discrete axis. *)

val of_pieces :
  Genas_model.Axis.t -> (Genas_interval.Interval.t * float) list -> t
(** Piecewise-uniform distribution from (interval, weight) pairs.
    Intervals must be pairwise disjoint, within the axis, and of
    positive measure; weights are normalized. *)

val of_blocks : Genas_model.Axis.t -> (float * float * float) list -> t
(** [(lo, hi, weight)] convenience over [of_pieces] with closed-left,
    open-right blocks (the last block is closed at the axis top). Used
    for the paper's block-style example distributions. *)

val of_density :
  ?bins:int -> Genas_model.Axis.t -> (float -> float) -> t
(** Discretize a density function into [bins] equal-width pieces
    (default 256) by midpoint evaluation, then normalize. On a
    discrete axis with at most [bins] points, evaluates every point
    exactly into atoms instead. *)

val mix : (float * t) list -> t
(** Weighted mixture of distributions on one common axis.

    @raise Invalid_argument on empty list, mismatched axes, or
    non-positive total weight. *)

val prob_interval : t -> Genas_interval.Interval.t -> float
(** Exact probability mass of an interval. *)

val cell_probs : t -> Genas_interval.Overlay.t -> float array
(** Quantization of §3: mass of each overlay cell, index-aligned with
    [Overlay.cells]. Sums to 1 up to rounding (the overlay covers the
    axis). *)

val mean : t -> float

val cdf : t -> float -> float
(** [cdf t x] = P(X <= x); 0 below the axis, 1 above it. *)

val quantile : t -> float -> float
(** [quantile t q] = smallest axis coordinate [x] with
    [cdf t x >= q] (up to a 1e-9 bisection tolerance).

    @raise Invalid_argument unless [0 <= q <= 1]. *)

val sample : Genas_prng.Prng.t -> t -> float
(** Draw a coordinate. On discrete axes the result is an inhabited
    integer coordinate. *)

val sampler : t -> Genas_prng.Prng.t -> float
(** [sampler t] precompiles the component tables once; the returned
    closure draws in O(log #components) instead of [sample]'s linear
    walk, consuming the same generator stream and producing the same
    values (the simulation harness uses it; tests assert the
    bit-equality). *)

val is_normalized : t -> bool
(** Total mass within 1e-9 of 1 (always true for constructed values;
    exposed for property tests). *)

val pp : Format.formatter -> t -> unit
