(** Attribute domains.

    A domain [D_j] fixes the set of admissible values of one attribute
    (§3 of the paper). Domains carry a *size* [d_j]: the value count for
    discrete domains and the Lebesgue measure for continuous ranges.
    Attribute-selectivity measures A1/A2 are ratios of such sizes. *)

type t = private
  | Int_range of { lo : int; hi : int }
      (** Integers in the inclusive range [[lo, hi]], with
          [-2{^53} < lo] and [hi < 2{^53}]. *)
  | Float_range of { lo : float; hi : float }
      (** Reals in the inclusive range [[lo, hi]]. *)
  | Enum of string array
      (** A finite, explicitly ordered set of symbolic values; the array
          order is the domain's natural order. *)
  | Bool_dom  (** [false < true]. *)

val exact_bound : int
(** [2{^53}]: every int of smaller magnitude is exactly a float, so int
    bounds strictly inside [±exact_bound] keep axis coordinates,
    decomposition cells and table slots exact. *)

val int_range : lo:int -> hi:int -> t
(** @raise Invalid_argument if [hi < lo], or unless
    [-exact_bound < lo] and [hi < exact_bound]. *)

val float_range : lo:float -> hi:float -> t
(** @raise Invalid_argument if [hi < lo] or a bound is not finite. *)

val enum : string list -> t
(** @raise Invalid_argument on duplicates or an empty list. *)

val bool_dom : t

val size : t -> float
(** [d_j]: element count for [Int_range]/[Enum]/[Bool_dom], measure
    [hi - lo] for [Float_range]. *)

val kind : t -> Value.kind
(** The value kind this domain admits. *)

val mem : t -> Value.t -> bool
(** Is the value admissible (right kind and within range / listed)? *)

val values : t -> Value.t list option
(** All values of a discrete domain in natural order; [None] for
    continuous domains and for int ranges with more than [100_000]
    elements (guard against accidental materialization). *)

val rank : t -> Value.t -> int
(** Position of a value in a discrete domain's natural order; [-1] for
    a value outside the domain. *)

val bounds : t -> (float * float) option
(** Numeric bounds for [Int_range]/[Float_range]; [None] otherwise. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Renders in the concrete syntax accepted by [of_string]. *)

val of_string : string -> (t, string) result
(** Parse the concrete domain syntax used by schema files and the CLI:
    ["int[lo,hi]"], ["float[lo,hi]"], ["enum{a,b,c}"], ["bool"]. Text
    that {!int_range} would reject is an [Error]. *)
