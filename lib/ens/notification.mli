(** Notifications: the ENS output channel.

    An ENS "informs its users about new events that occurred on
    providers' sites" (§1); a notification carries the event, its
    origin — the primitive profile or the composite subscription that
    matched — and the subscriber it is delivered to. *)

type origin =
  | Primitive of Genas_profile.Profile_set.id
      (** matched a primitive profile, by registry id *)
  | Composite of int
      (** completed a composite occurrence, by composite-subscription
          id (ids are per broker, starting at 0) *)

type t = {
  event : Genas_model.Event.t;
  origin : origin;
  subscriber : string;
  broker : int option;  (** delivering broker in a routed network *)
}

type handler = t -> unit

val make :
  ?broker:int ->
  event:Genas_model.Event.t ->
  origin:origin ->
  subscriber:string ->
  unit ->
  t

val pp : Genas_model.Schema.t -> Format.formatter -> t -> unit
