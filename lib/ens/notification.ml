module Event = Genas_model.Event
module Schema = Genas_model.Schema

type origin =
  | Primitive of Genas_profile.Profile_set.id
  | Composite of int

type t = {
  event : Event.t;
  origin : origin;
  subscriber : string;
  broker : int option;
}

type handler = t -> unit

let make ?broker ~event ~origin ~subscriber () =
  { event; origin; subscriber; broker }

let pp_origin ppf = function
  | Primitive id -> Format.fprintf ppf "profile %d" id
  | Composite id -> Format.fprintf ppf "composite %d" id

let pp schema ppf t =
  Format.fprintf ppf "@[<h>notify %s (%a%t): %a@]" t.subscriber pp_origin
    t.origin
    (fun ppf ->
      match t.broker with
      | Some b -> Format.fprintf ppf ", broker %d" b
      | None -> ())
    (Event.pp schema) t.event
