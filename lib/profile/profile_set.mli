(** Profile registries.

    The set [P] of profiles defined in an ENS (§3), with stable integer
    identifiers. All matchers and trees are built from a registry
    snapshot. Removal keeps identifiers stable (ids are never reused). *)

type id = int

module Id_table : Hashtbl.S with type key = id
(** Tables keyed by id, hashed by identity: a lookup on the match or
    delivery path costs no generic [caml_hash] and [compare]. Iteration
    order differs from a generic [Hashtbl]'s. *)

type t

val create : Genas_model.Schema.t -> t

val schema : t -> Genas_model.Schema.t

val add : t -> Profile.t -> id
(** Register a profile (already bound to the same schema) and return
    its id. *)

val add_spec :
  t -> ?name:string -> (string * Predicate.test) list -> (id, string) result
(** Convenience: bind and register in one step. *)

val add_with_id : t -> id:id -> Profile.t -> unit
(** Re-register a profile under an explicit identifier — the recovery
    path, where journaled ids must be reproduced exactly so the rebuilt
    tree and flat matcher are bit-identical to the original's. Advances
    the internal id counter past [id].

    @raise Invalid_argument if [id] is negative or already live. *)

val reserve_ids : t -> id -> unit
(** Ensure the next assigned id is at least [id]. Recovery uses this to
    restore the counter past ids that were assigned and later removed —
    ids are never reused, even across a crash. *)

val next_id : t -> id
(** The id the next [add] will assign (for durable snapshots). *)

val remove : t -> id -> bool
(** [true] if the id was present. *)

val find : t -> id -> Profile.t option

val find_exn : t -> id -> Profile.t

val mem : t -> id -> bool

val size : t -> int
(** [p], the number of live profiles. *)

val revision : t -> int
(** Monotone counter bumped by every [add]/[remove]. The engine
    compares it with the revision its own churn calls left and refuses
    a registry edited behind its back. *)

val ids : t -> id list
(** Live ids, ascending. *)

val iter : t -> (id -> Profile.t -> unit) -> unit
(** In ascending id order. *)

val fold : t -> init:'a -> f:('a -> id -> Profile.t -> 'a) -> 'a

val denotations : t -> int -> (id * Genas_interval.Iset.t) list
(** Per-attribute denotations of all live profiles that constrain the
    attribute with the given natural index — the input to
    {!Genas_interval.Overlay.build}. *)
