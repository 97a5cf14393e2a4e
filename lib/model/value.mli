(** Attribute values.

    Events and profile predicates exchange values of four primitive
    kinds. Values are immutable and totally ordered within a kind;
    ordering across kinds is by kind tag (needed only so values can key
    maps — cross-kind comparisons never arise in well-typed schemas). *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type kind = Kint | Kfloat | Kstr | Kbool

val kind : t -> kind

val kind_name : kind -> string

val compare : t -> t -> int
(** Total order: same-kind values compare naturally, distinct kinds
    compare by tag. *)

val equal : t -> t -> bool

val hash : t -> int

val to_string : t -> string
(** Render in the profile-language syntax ([Str] values are quoted;
    floats use the shortest decimal form that parses back exactly). *)

val float_to_string : float -> string
(** The float rendering used by [to_string], exposed for printers that
    must stay re-parseable (e.g. {!Domain.pp}). *)

val pp : Format.formatter -> t -> unit

val of_string : kind -> string -> (t, string) result
(** Parse a literal of the requested kind. [Str] accepts either a
    double-quoted literal or a bare token. *)
