(** Numeric axes: a uniform coordinate view of every domain.

    The subrange decomposition of §3 and all distribution machinery
    work on a single numeric line per attribute. Continuous domains map
    to themselves; discrete domains (int ranges, enumerations, bool)
    map to integer coordinates — enumeration values map to their rank.
    This lets one interval/distribution implementation serve all four
    domain kinds. *)

type t = private {
  discrete : bool;
      (** If true, the only inhabited coordinates are the integers in
          [[lo, hi]]; sizes are counts. Otherwise the axis is the real
          interval [[lo, hi]] with Lebesgue measure. *)
  lo : float;
  hi : float;
}

val of_domain : Domain.t -> t

val make : discrete:bool -> lo:float -> hi:float -> t
(** Direct constructor for synthetic axes (used by the distribution
    catalog's normalized 0–100 axis).

    @raise Invalid_argument if [hi < lo], bounds are not finite, or a
    discrete axis has non-integer bounds or bounds outside
    [(-2{^53}, 2{^53})] ({!Domain.exact_bound}). *)

val coord : Domain.t -> Value.t -> float option
(** Coordinate of a value on its domain's axis; [None] if the value
    does not belong to the domain. *)

val coord_into : Domain.t -> Value.t -> Float.Array.t -> int -> unit
(** [coord_into dom v dst i] stores the coordinate of [v] at [dst.(i)],
    or [nan] if [v] does not belong to the domain. Allocates nothing. *)

val coord_exn : Domain.t -> Value.t -> float

val value : Domain.t -> float -> Value.t
(** Inverse of [coord]: the domain value at a coordinate. Continuous
    coordinates are clamped into the domain; discrete coordinates are
    rounded to the nearest inhabited point.

    @raise Invalid_argument if the domain is an enumeration and the
    rounded rank is out of range. *)

val size : t -> float
(** Point count (discrete) or length (continuous) — the [d_j] of §3. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
