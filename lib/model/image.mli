(** Event images: an event resolved once, for every layer to read.

    A {e tabled} attribute resolves to a {e slot}: its int-range offset
    or enum/bool rank, [-1] outside the domain. Slot [s] stands for the
    axis coordinate [lo + s], so a consumer compiles a slot-indexed
    table once and resolves each event with one array load. Every
    attribute also resolves to its axis coordinate ({!Axis.coord},
    [nan] outside the domain); untabled ones (float ranges, wide or
    huge-valued int ranges) are read through it and keep slot [-1].

    An image is a buffer for one thread of control: {!resolve}
    overwrites it in place and allocates nothing. *)

type t

val max_table : int
(** Largest tabled axis, in points. *)

val table_size : Axis.t -> int option
(** [Some n] when the axis is tabled (its slots are [0 .. n-1]): a
    discrete axis of at most {!max_table} points. *)

val create : Schema.t -> t

val resolve : t -> Event.t -> unit
(** Overwrite the image with the event's values over its schema.
    @raise Invalid_argument if the event has fewer values than the
    schema has attributes. *)

val slots : t -> int array

val coords : t -> Float.Array.t
(** Both borrowed, indexed by attribute. *)
